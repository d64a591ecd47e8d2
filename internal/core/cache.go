package core

import (
	"math/bits"
	"slices"
)

// entryState tracks where an access range's data lives.
type entryState uint8

const (
	stateGhost    entryState = iota // seen, not cached (reference counting only)
	stateSlab                       // cached in the Data Area arena
	stateOverflow                   // cached out-of-arena after a slab migration
)

// rangeKey identifies an access range within a file — the unit the
// per-file lookup table is keyed by.
type rangeKey struct {
	off int64
	n   int32
}

// entry is one tracked access range.
type entry struct {
	key   rangeKey
	state entryState

	refCount uint32 // compared against the adaptive threshold on access

	slabOff int32  // valid in stateSlab: arena offset of the item (Config caps the Data Area at 2 GiB)
	slabCls int32  // valid in stateSlab
	data    []byte // valid in stateOverflow

	// The overflow FIFO's links, valid in stateOverflow.
	overPrev, overNext *entry

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

// overflowFIFO is the FIFO of stateOverflow entries, oldest first, linked
// through the entries themselves.
type overflowFIFO struct {
	head, tail *entry
}

func (q *overflowFIFO) pushBack(e *entry) {
	e.overPrev, e.overNext = q.tail, nil
	if q.tail != nil {
		q.tail.overNext = e
	} else {
		q.head = e
	}
	q.tail = e
}

// remove unlinks e, which must be in the FIFO.
func (q *overflowFIFO) remove(e *entry) {
	if e.overPrev != nil {
		e.overPrev.overNext = e.overNext
	} else {
		q.head = e.overNext
	}
	if e.overNext != nil {
		e.overNext.overPrev = e.overPrev
	} else {
		q.tail = e.overPrev
	}
	e.overPrev, e.overNext = nil, nil
}

// pageItem is one entry's place in a page's set. The key, and the arena
// offset while the entry is cached in a slab, sit beside the pointer: a
// scan compares ranges without dereferencing the entries it passes over,
// and a slab hit finds its bytes without waiting on its entry.
type pageItem struct {
	off     int64 // the entry's key
	n       int32
	slabOff int32 // the entry's slabOff in stateSlab, else -1
	e       *entry
}

func (it *pageItem) key() rangeKey { return rangeKey{off: it.off, n: it.n} }

// cached reports whether the entry holds data (is not a ghost).
func (it *pageItem) cached() bool { return it.slabOff >= 0 || it.e.state == stateOverflow }

// pageSet holds the entries touching one page, in insertion order up to
// swap-removes. The first sits inline, so a page with one tracked range —
// what page-aligned fine reads produce — is read without another
// indirection; the rest spill into a slot of the core's item pool, which
// the set keeps when the page empties.
type pageSet struct {
	first pageItem   // e is nil when the set is empty
	rest  []pageItem // a pool slot: cap is the slot's size
}

func (s *pageSet) len() int {
	if s.first.e == nil {
		return 0
	}
	return 1 + len(s.rest)
}

// at returns the i'th item.
func (s *pageSet) at(i int) *pageItem {
	if i == 0 {
		return &s.first
	}
	return &s.rest[i-1]
}

// add appends it, moving the spill items to a slot of the next size class
// when theirs is full.
func (s *pageSet) add(items *itemPool, it pageItem) {
	if s.first.e == nil {
		s.first = it
		return
	}
	if len(s.rest) == cap(s.rest) {
		s.rest = items.grow(s.rest)
	}
	s.rest = append(s.rest, it)
}

// remove deletes e, moving the last item into its place.
func (s *pageSet) remove(e *entry) {
	n := s.len()
	for i := 0; i < n; i++ {
		if it := s.at(i); it.e == e {
			last := s.at(n - 1)
			*it = *last
			*last = pageItem{}
			if n > 1 {
				s.rest = s.rest[:n-2]
			}
			return
		}
	}
}

// Spill slots hold itemSlotMin items, or a power-of-two multiple of that;
// a chunk holds itemChunk items (a bigger slot gets a chunk of its own).
const (
	itemSlotMin = 2
	itemChunk   = 1024
)

// itemPool hands out the spill slots of page sets, carved from chunks in
// power-of-two size classes. A set that outgrows its slot moves to a slot
// of the next class and frees the old one on its class's free list, so new
// ranges on indexed pages allocate only when a chunk runs out.
type itemPool struct {
	chunk []pageItem       // uncarved tail of the current chunk
	free  [32][][]pageItem // free slots by size class, each empty
}

// itemClass is the size class of a slot of n items.
func itemClass(n int) int { return bits.Len(uint(n-1) / itemSlotMin) }

// grow returns a slot of the next size class up from full's (the smallest
// for an empty set) holding full's items, and frees full's slot.
func (p *itemPool) grow(full []pageItem) []pageItem {
	size := max(itemSlotMin, 2*cap(full))
	class := itemClass(size)
	var slot []pageItem
	if f := p.free[class]; len(f) > 0 {
		slot, p.free[class] = f[len(f)-1], f[:len(f)-1]
	} else {
		if len(p.chunk) < size {
			p.chunk = make([]pageItem, max(size, itemChunk))
		}
		slot, p.chunk = p.chunk[:0:size], p.chunk[size:]
	}
	slot = append(slot, full...)
	p.release(full)
	return slot
}

// release frees slot, if it is one, on its size class's free list.
func (p *itemPool) release(slot []pageItem) {
	if cap(slot) == 0 {
		return
	}
	clear(slot[:cap(slot)]) // drop the entry pointers
	c := itemClass(cap(slot))
	if p.free[c] == nil {
		// Room for a chunk's worth of the class's slots up front: sets
		// tend to outgrow a class together.
		p.free[c] = make([][]pageItem, 0, max(1, itemChunk/cap(slot)))
	}
	p.free[c] = append(p.free[c], slot[:0])
}

// fileTable is the per-file lookup table of §3.1.2: a dense index, by page
// number, of the entries touching each page. One scan of a page's set finds
// an exact key, a containment hit and the write-invalidation set alike.
// The index grows on demand up to the file's highest indexed page.
type fileTable struct {
	ino      uint64
	pageSize uint64
	byPage   []pageSet // page index -> entries touching the page
	items    *itemPool // spill slots of the page sets
	scratch  []*entry  // overlapping() result, reused per call
}

// newTable returns an empty table whose page sets spill into items.
func newTable(ino uint64, pageSize int, items *itemPool) *fileTable {
	return &fileTable{ino: ino, pageSize: uint64(pageSize), items: items}
}

// pages iterates the page indices a range touches.
func (k rangeKey) pages(pageSize uint64) (first, last uint64) {
	first = uint64(k.off) / pageSize
	last = uint64(k.off+int64(k.n)-1) / pageSize
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

// set returns the entries touching page p, nil past the indexed pages.
func (t *fileTable) set(p uint64) *pageSet {
	if p < uint64(len(t.byPage)) {
		return &t.byPage[p]
	}
	return nil
}

// find scans the first page of [off, off+n) once and returns the entry
// with exactly that key, if tracked, and the item of a cached (non-ghost)
// entry whose range covers it: the exact entry if cached, else the first
// cached containing entry in the page's set. This lets a small read hit a
// previously cached larger range. The set's order is deterministic, so ties
// resolve identically run to run.
func (t *fileTable) find(off int64, n int) (exact *entry, covering *pageItem) {
	set := t.set(uint64(off) / t.pageSize)
	if set == nil {
		return nil, nil
	}
	for i, m := 0, set.len(); i < m; i++ {
		it := set.at(i)
		if it.off == off && int(it.n) == n {
			if exact = it.e; it.cached() {
				return exact, it
			}
		} else if covering == nil && it.key().contains(off, n) && it.cached() {
			covering = it
		}
	}
	return exact, covering
}

// index inserts e, a ghost, into the set of every page it touches.
func (t *fileTable) index(e *entry) {
	first, last := e.key.pages(t.pageSize)
	if need := int(last) + 1; need > len(t.byPage) {
		t.byPage = slices.Grow(t.byPage, need-len(t.byPage))[:need]
	}
	for p := first; p <= last; p++ {
		t.byPage[p].add(t.items, pageItem{off: e.key.off, n: e.key.n, slabOff: -1, e: e})
	}
}

// mirror records slabOff, e's arena offset or -1 when it leaves its slab,
// in each of e's items.
func (t *fileTable) mirror(e *entry, slabOff int32) {
	first, last := e.key.pages(t.pageSize)
	for p := first; p <= last; p++ {
		set := &t.byPage[p]
		for i, m := 0, set.len(); i < m; i++ {
			if it := set.at(i); it.e == e {
				it.slabOff = slabOff
				break
			}
		}
	}
}

// unindex removes e from every page set.
func (t *fileTable) unindex(e *entry) {
	first, last := e.key.pages(t.pageSize)
	for p := first; p <= last; p++ {
		t.byPage[p].remove(e)
	}
}

// overlapping collects entries intersecting [off, off+n) — the write
// invalidation set. The result is table-owned scratch, valid until the next
// call. An entry spanning several pages is reported once: at the first page
// of the scan window that touches it.
func (t *fileTable) overlapping(off int64, n int) []*entry {
	first := uint64(off) / t.pageSize
	last := uint64(off+int64(n)-1) / t.pageSize
	out := t.scratch[:0]
	for p := first; p <= last; p++ {
		set := t.set(p)
		if set == nil {
			break
		}
		for i, m := 0, set.len(); i < m; i++ {
			it := set.at(i)
			ef, _ := it.key().pages(t.pageSize)
			if ef < first {
				ef = first
			}
			if p == ef && it.key().overlaps(off, n) {
				out = append(out, it.e)
			}
		}
	}
	t.scratch = out
	return out
}

// bufChunk is how much memory bufPool carves its buffers from at a time.
const bufChunk = 64 << 10

// bufPool hands out byte buffers carved from bufChunk-sized chunks, and
// recycles them by power-of-two size: a buffer for n bytes has the
// capacity of the next power of two, and returns to that size's free
// list.
type bufPool struct {
	free  [][][]byte // free[k]: buffers of capacity 1<<k
	chunk []byte     // the rest of the chunk being carved
}

// get returns a buffer of length n, 0 < n <= bufChunk (an overflow entry
// holds one fine read, at most hmb.TempSlot bytes). Its bytes are stale.
func (bp *bufPool) get(n int) []byte {
	k := bits.Len(uint(n - 1)) // 1<<k is the smallest power of two >= n
	if k < len(bp.free) {
		if m := len(bp.free[k]); m > 0 {
			b := bp.free[k][m-1]
			bp.free[k] = bp.free[k][:m-1]
			return b[:n]
		}
	}
	size := 1 << k
	if len(bp.chunk) < size {
		bp.chunk = make([]byte, bufChunk)
	}
	b := bp.chunk[:n:size]
	bp.chunk = bp.chunk[size:]
	return b
}

// put returns b to the pool, on the free list of the largest power of two
// its capacity covers.
func (bp *bufPool) put(b []byte) {
	k := bits.Len(uint(cap(b))) - 1
	for len(bp.free) <= k {
		bp.free = append(bp.free, nil)
	}
	bp.free[k] = append(bp.free[k], b[:0])
}
