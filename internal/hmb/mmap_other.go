//go:build !unix

package hmb

// mapAnon reports that this platform has no anonymous mapping: New falls
// back to a Go slice.
func mapAnon(int) []byte { return nil }

// unmapAnon is never called here: nothing was mapped.
func unmapAnon([]byte) {}
