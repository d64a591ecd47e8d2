package sim

// Resource models a unit of hardware that serves one operation at a time:
// a NAND channel bus, a flash die, the PCIe link. Operations queue FIFO in
// virtual time; Acquire returns when the operation starts and completes.
//
// The zero value is a free resource.
type Resource struct {
	freeAt Time
	busy   Time // total occupied span, for utilization accounting
}

// Acquire schedules an operation of duration dur requested at time now.
// It returns the operation's start and completion times. The operation
// starts at max(now, freeAt): if the resource is busy, the request waits.
func (r *Resource) Acquire(now, dur Time) (start, end Time) {
	start = max(now, r.freeAt)
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// BusyTime reports the cumulative span the resource has been occupied.
func (r *Resource) BusyTime() Time { return r.busy }

// Reset returns the resource to the free state (test setup only).
func (r *Resource) Reset() { r.freeAt, r.busy = 0, 0 }

// ResourceSet is an indexed group of identical resources, e.g. the channels
// of a NAND array.
type ResourceSet struct {
	rs []Resource
}

// NewResourceSet creates a set of n free resources.
func NewResourceSet(n int) *ResourceSet {
	return &ResourceSet{rs: make([]Resource, n)}
}

// Len reports the number of resources in the set.
func (s *ResourceSet) Len() int { return len(s.rs) }

// Get returns the i'th resource.
func (s *ResourceSet) Get(i int) *Resource { return &s.rs[i] }

// Acquire schedules dur on resource i at time now.
func (s *ResourceSet) Acquire(i int, now, dur Time) (start, end Time) {
	return s.rs[i].Acquire(now, dur)
}

// MaxFreeAt reports the latest next-idle time across the set: the moment
// every resource has drained.
func (s *ResourceSet) MaxFreeAt() Time {
	var m Time
	for i := range s.rs {
		if s.rs[i].freeAt > m {
			m = s.rs[i].freeAt
		}
	}
	return m
}
