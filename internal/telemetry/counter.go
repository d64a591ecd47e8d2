package telemetry

import "sync/atomic"

// Counter is an atomic event counter for retry/fallback accounting on
// paths that must stay cheap: Inc is one atomic add, there is no label
// machinery, and — like the Nop tracer — an unused Counter costs nothing
// beyond its word of storage. Embed it by value in the owning struct
// (never inside by-value snapshot structs: the atomic word must not be
// copied) and expose Load() through a snapshot accessor.
//
// The simulator is single-threaded per system, but counters are read by
// telemetry probes that may sample from another goroutine, hence atomic.
// Registry.Counter hands out the same type as an owned series value, so a
// scrape reads the word without coordination.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }
