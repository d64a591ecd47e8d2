package index

import "pipette/internal/sim"

// hashEngine is the store's original index, extracted behind the Engine
// interface: one in-memory sorted map, probed by hash for point lookups
// and sorted on demand for ordered scans. It touches no files — lookups
// are free in both virtual time and device traffic, which is exactly what
// makes it the baseline for the on-device engines: any read-amp a btree or
// lsm cell shows over a hash cell is index traversal, nothing else.
type hashEngine struct {
	keys  *sortedMap
	stats Stats
}

func newHash() *hashEngine {
	return &hashEngine{keys: newSortedMap()}
}

func (h *hashEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	h.stats.Inserts++
	h.keys.set(key, l, false)
	return now, nil
}

func (h *hashEngine) Delete(now sim.Time, key string) (sim.Time, error) {
	h.stats.Deletes++
	h.keys.delete(key)
	return now, nil
}

func (h *hashEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	h.stats.Lookups++
	l, _, ok := h.keys.get(key)
	return l, ok, now, nil
}

func (h *hashEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	for _, p := range h.keys.ascend(start) {
		e := &h.keys.ents[p]
		var more bool
		now, more = fn(now, e.key, e.loc)
		if !more {
			break
		}
	}
	return now, nil
}

func (h *hashEngine) Tick(now sim.Time) (bool, sim.Time, error) { return false, now, nil }

func (h *hashEngine) Close(now sim.Time) (sim.Time, error) { return now, nil }

func (h *hashEngine) Stats() Stats { return h.stats }
