package core

import (
	"container/list"
)

// entryState tracks where an access range's data lives.
type entryState uint8

const (
	stateGhost    entryState = iota // seen, not cached (reference counting only)
	stateSlab                       // cached in the Data Area arena
	stateOverflow                   // cached out-of-arena after a slab migration
)

// rangeKey identifies an access range within a file — the unit the
// per-file hash lookup table is keyed by.
type rangeKey struct {
	off int64
	n   int32
}

// keyLenBits packs a range's length into the low bits of its uint64 map
// key. Fine ranges are at most FineMaxBytes <= one page (4 KiB), so 13 bits
// hold the length and offsets up to 2^51 bytes keep distinct keys.
const keyLenBits = 13

// packed folds the key into one uint64 so the lookup table hits the
// runtime's fast integer map path instead of the generic struct hasher.
func (k rangeKey) packed() uint64 {
	return uint64(k.off)<<keyLenBits | uint64(k.n)
}

// entry is one tracked access range.
type entry struct {
	key   rangeKey
	state entryState

	refCount uint32 // compared against the adaptive threshold on access

	slabOff  int    // valid in stateSlab: arena offset of the item
	slabCls  int    // valid in stateSlab
	data     []byte // valid in stateOverflow
	overElem *list.Element

	table *fileTable
}

// entryChunk is how many entries the arena allocates at once.
const entryChunk = 256

// entryArena hands out entries from chunks and recycles deleted ones, so
// the detector's ghost entries — one per new access range — do not cost an
// allocation each.
type entryArena struct {
	chunk []entry  // unused tail of the current chunk
	free  []*entry // deleted entries, ready for reuse
}

// alloc returns a zeroed entry.
func (a *entryArena) alloc() *entry {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free = a.free[:n-1]
		return e
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]entry, entryChunk)
	}
	e := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return e
}

// release takes back an entry that no index, list or map still holds.
func (a *entryArena) release(e *entry) {
	*e = entry{}
	a.free = append(a.free, e)
}

// fileTable is the per-file hash lookup table of §3.1.2 plus the per-page
// interval index used for write invalidation and containment hits.
type fileTable struct {
	ino     uint64
	entries map[uint64]*entry   // packed rangeKey -> entry
	byPage  map[uint64][]*entry // page index -> entries touching the page
	scratch []*entry            // overlapping() result, reused per call
}

func newFileTable(ino uint64) *fileTable {
	return &fileTable{
		ino:     ino,
		entries: make(map[uint64]*entry),
		byPage:  make(map[uint64][]*entry),
	}
}

// pages iterates the page indices a range touches.
func (k rangeKey) pages(pageSize int) (first, last uint64) {
	first = uint64(k.off) / uint64(pageSize)
	last = uint64(k.off+int64(k.n)-1) / uint64(pageSize)
	return first, last
}

// contains reports whether k fully covers [off, off+n).
func (k rangeKey) contains(off int64, n int) bool {
	return k.off <= off && off+int64(n) <= k.off+int64(k.n)
}

// overlaps reports whether k intersects [off, off+n).
func (k rangeKey) overlaps(off int64, n int) bool {
	return k.off < off+int64(n) && off < k.off+int64(k.n)
}

// lookup returns the entry with exactly key k, if tracked.
func (t *fileTable) lookup(k rangeKey) (*entry, bool) {
	e, ok := t.entries[k.packed()]
	return e, ok
}

// index inserts e into the lookup table and the per-page index.
func (t *fileTable) index(e *entry, pageSize int) {
	t.entries[e.key.packed()] = e
	first, last := e.key.pages(pageSize)
	for p := first; p <= last; p++ {
		t.byPage[p] = append(t.byPage[p], e)
	}
}

// unindex removes e from both indexes.
func (t *fileTable) unindex(e *entry, pageSize int) {
	delete(t.entries, e.key.packed())
	first, last := e.key.pages(pageSize)
	for p := first; p <= last; p++ {
		set := t.byPage[p]
		for i, cand := range set {
			if cand == e {
				set[i] = set[len(set)-1]
				set[len(set)-1] = nil
				t.byPage[p] = set[:len(set)-1]
				break
			}
		}
		if len(t.byPage[p]) == 0 {
			delete(t.byPage, p)
		}
	}
}

// findCovering locates a cached (non-ghost) entry whose range fully covers
// [off, off+n): the exact key if cached, else a containment scan over the
// entries touching the first page. This lets a small read hit a previously
// cached larger range. The slice scan visits entries in a deterministic
// order, so ties resolve identically run to run.
func (t *fileTable) findCovering(off int64, n int, pageSize int) *entry {
	if e, ok := t.lookup(rangeKey{off: off, n: int32(n)}); ok && e.state != stateGhost {
		return e
	}
	first := uint64(off) / uint64(pageSize)
	for _, e := range t.byPage[first] {
		if e.state != stateGhost && e.key.contains(off, n) {
			return e
		}
	}
	return nil
}

// overlapping collects entries intersecting [off, off+n) — the write
// invalidation set. The result is table-owned scratch, valid until the next
// call. An entry spanning several pages is reported once: at the first page
// of the scan window that touches it.
func (t *fileTable) overlapping(off int64, n int, pageSize int) []*entry {
	first := uint64(off) / uint64(pageSize)
	last := uint64(off+int64(n)-1) / uint64(pageSize)
	out := t.scratch[:0]
	for p := first; p <= last; p++ {
		for _, e := range t.byPage[p] {
			ef, _ := e.key.pages(pageSize)
			if ef < first {
				ef = first
			}
			if p == ef && e.key.overlaps(off, n) {
				out = append(out, e)
			}
		}
	}
	t.scratch = out
	return out
}
