//go:build unix

package hmb

import "syscall"

// mapAnon returns n bytes of anonymous private memory, whose pages the
// kernel zero-fills on first touch, or nil if the mapping fails.
func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

// unmapAnon releases a mapping mapAnon returned. munmap fails only on a
// range that is not a mapping, which b cannot be, so the error is dropped.
func unmapAnon(b []byte) { _ = syscall.Munmap(b) }
