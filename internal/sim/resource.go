package sim

// Resource models a unit of hardware that serves one operation at a time:
// a NAND channel bus, a flash die, the PCIe link. Operations queue FIFO in
// virtual time; Acquire returns when the operation starts and completes.
//
// The zero value is a free resource.
type Resource struct {
	freeAt Time
}

// Acquire schedules an operation of duration dur requested at time now.
// It returns the operation's start and completion times. The operation
// starts at max(now, freeAt): if the resource is busy, the request waits.
func (r *Resource) Acquire(now, dur Time) (start, end Time) {
	start = max(now, r.freeAt)
	end = start + dur
	r.freeAt = end
	return start, end
}

// ResourceSet is an indexed group of identical resources, e.g. the channels
// of a NAND array.
type ResourceSet struct {
	rs []Resource
}

// NewResourceSet creates a set of n free resources.
func NewResourceSet(n int) *ResourceSet {
	return &ResourceSet{rs: make([]Resource, n)}
}

// Acquire schedules dur on resource i at time now.
func (s *ResourceSet) Acquire(i int, now, dur Time) (start, end Time) {
	return s.rs[i].Acquire(now, dur)
}
