package pagecache

// The map-based page cache the slot-table cache replaced, kept verbatim as
// the reference the twin test drives beside it: a two-level map from inode
// and page index to heap entries on a pointer-linked LRU.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// modelEntry is one resident page.
type modelEntry struct {
	key        Key
	dirty      bool
	data       []byte // nil unless dirty
	prev, next *modelEntry
}

// modelCache is the page cache as it was built on Go maps.
//
// The index is two-level — inode, then page index — so lookups take the
// runtime's fast uint64 map path instead of hashing a struct key, and the
// common one-file-per-engine case resolves through a memoized inner map.
type modelCache struct {
	capacity int // pages; 0 means empty cache (everything misses)
	pages    map[uint64]map[uint64]*modelEntry
	count    int
	lastIno  uint64
	lastFile map[uint64]*modelEntry
	head     *modelEntry // sentinel: most recent after head
	tail     *modelEntry // sentinel: least recent before tail
	free     *modelEntry // recycled entries, chained on next
	onEvict  EvictFunc

	pageSize int

	hits     uint64
	accesses uint64
	inserts  uint64
	evicts   uint64
	dirtyN   int
}

// newModel creates a model cache with a capacity budget in pages.
func newModel(capacityPages, pageSize int, onEvict EvictFunc) (*modelCache, error) {
	if capacityPages < 0 {
		return nil, errors.New("pagecache: negative capacity")
	}
	if pageSize <= 0 {
		return nil, errors.New("pagecache: page size must be positive")
	}
	c := &modelCache{
		capacity: capacityPages,
		pages:    make(map[uint64]map[uint64]*modelEntry),
		head:     &modelEntry{},
		tail:     &modelEntry{},
		onEvict:  onEvict,
		pageSize: pageSize,
	}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c, nil
}

// Len reports resident pages.
func (c *modelCache) Len() int { return c.count }

// Capacity reports the page budget.
func (c *modelCache) Capacity() int { return c.capacity }

// MemoryBytes reports resident memory charged to the cache (every resident
// page counts at page granularity — the paper's Table 4 "memory usage"
// metric — even though clean pages are not materialized here).
func (c *modelCache) MemoryBytes() uint64 {
	return uint64(c.count) * uint64(c.pageSize)
}

// Stats reports hits, accesses, insertions, evictions.
func (c *modelCache) Stats() (hits, accesses, inserts, evicts uint64) {
	return c.hits, c.accesses, c.inserts, c.evicts
}

// HitRatio reports hits/accesses (0 when unused) — the input to the
// paper's dynamic allocation strategy (§3.2.4).
func (c *modelCache) HitRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.accesses)
}

// fileMap resolves the inner map of one inode, memoizing the last file
// touched (requests run page loops over a single file).
func (c *modelCache) fileMap(ino uint64) map[uint64]*modelEntry {
	if c.lastFile != nil && c.lastIno == ino {
		return c.lastFile
	}
	m, ok := c.pages[ino]
	if !ok {
		return nil
	}
	c.lastIno, c.lastFile = ino, m
	return m
}

func (c *modelCache) get(key Key) (*modelEntry, bool) {
	m := c.fileMap(key.File)
	if m == nil {
		return nil, false
	}
	e, ok := m[key.Index]
	return e, ok
}

func (c *modelCache) put(e *modelEntry) {
	m := c.fileMap(e.key.File)
	if m == nil {
		m = make(map[uint64]*modelEntry)
		c.pages[e.key.File] = m
		c.lastIno, c.lastFile = e.key.File, m
	}
	m[e.key.Index] = e
	c.count++
}

func (c *modelCache) del(e *modelEntry) {
	m := c.fileMap(e.key.File)
	delete(m, e.key.Index)
	c.count--
	if len(m) == 0 {
		delete(c.pages, e.key.File)
		if c.lastIno == e.key.File {
			c.lastFile = nil
		}
	}
}

func (c *modelCache) newEntry() *modelEntry {
	if e := c.free; e != nil {
		c.free = e.next
		*e = modelEntry{}
		return e
	}
	return &modelEntry{}
}

func (c *modelCache) recycle(e *modelEntry) {
	e.key = Key{}
	e.data = nil
	e.prev = nil
	e.next = c.free
	c.free = e
}

func (c *modelCache) pushFront(e *modelEntry) {
	e.prev = c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}

func (c *modelCache) unlink(e *modelEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Lookup checks residency and counts the access. On a hit the page moves to
// the LRU front. It returns the dirty payload (nil for clean pages — the
// caller regenerates clean bytes from the device oracle).
func (c *modelCache) Lookup(key Key) (data []byte, dirty, ok bool) {
	c.accesses++
	e, found := c.get(key)
	if !found {
		return nil, false, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.data, e.dirty, true
}

// Contains checks residency without counting an access or touching LRU.
func (c *modelCache) Contains(key Key) bool {
	_, ok := c.get(key)
	return ok
}

// ContainsDirty checks for a resident dirty copy without counting an
// access or touching LRU.
func (c *modelCache) ContainsDirty(key Key) bool { return c.DirtyData(key) != nil }

// DirtyData returns a resident dirty page's buffer without counting an
// access or touching LRU; nil when the page is absent or clean. The buffer
// stays cache-owned: a writer may edit it in place and pass it back to
// MarkDirty.
func (c *modelCache) DirtyData(key Key) []byte {
	e, ok := c.get(key)
	if !ok || !e.dirty {
		return nil
	}
	return e.data
}

// Insert makes a page resident. data must be nil for clean pages and the
// page's bytes for dirty ones (the cache takes ownership of the slice).
// Inserting over an existing entry replaces its state. Eviction keeps
// residency within capacity.
func (c *modelCache) Insert(key Key, dirty bool, data []byte) error {
	if dirty && len(data) != c.pageSize {
		return fmt.Errorf("pagecache: dirty insert with %d bytes, want %d", len(data), c.pageSize)
	}
	if !dirty && data != nil {
		return errors.New("pagecache: clean pages must not materialize data")
	}
	if c.capacity == 0 {
		// Zero-budget cache admits nothing; dirty data is immediately
		// "written back" through the evict hook.
		if c.onEvict != nil {
			c.onEvict(key, dirty, data)
		}
		return nil
	}
	if e, ok := c.get(key); ok {
		if e.dirty != dirty {
			if dirty {
				c.dirtyN++
			} else {
				c.dirtyN--
			}
		}
		e.dirty = dirty
		e.data = data
		c.unlink(e)
		c.pushFront(e)
		return nil
	}
	e := c.newEntry()
	e.key, e.dirty, e.data = key, dirty, data
	if dirty {
		c.dirtyN++
	}
	c.put(e)
	c.pushFront(e)
	c.inserts++
	c.evictOverflow()
	return nil
}

// MarkDirty transitions a resident page to dirty with its bytes (the cache
// takes ownership of the slice). Returns false if the page is not resident.
func (c *modelCache) MarkDirty(key Key, data []byte) (bool, error) {
	if len(data) != c.pageSize {
		return false, fmt.Errorf("pagecache: dirty data %d bytes, want %d", len(data), c.pageSize)
	}
	e, ok := c.get(key)
	if !ok {
		return false, nil
	}
	if !e.dirty {
		c.dirtyN++
	}
	e.dirty = true
	e.data = data
	c.unlink(e)
	c.pushFront(e)
	return true, nil
}

func (c *modelCache) dropEntry(e *modelEntry) {
	c.unlink(e)
	c.del(e)
	c.evicts++
	if e.dirty {
		c.dirtyN--
	}
	key, dirty, data := e.key, e.dirty, e.data
	c.recycle(e)
	if c.onEvict != nil {
		c.onEvict(key, dirty, data)
	}
}

// DiscardFile drops every resident page of one file without invoking the
// evict hook — unlink semantics: dirty pages are abandoned, not written
// back. release, when non-nil, receives each dirty page's buffer so the
// caller can recycle it. Returns the number of pages dropped.
func (c *modelCache) DiscardFile(ino uint64, release func(data []byte)) int {
	m := c.pages[ino]
	if m == nil {
		return 0
	}
	dropped := 0
	for _, e := range m {
		c.unlink(e)
		c.evicts++
		if e.dirty {
			c.dirtyN--
			if release != nil && e.data != nil {
				release(e.data)
			}
		}
		c.recycle(e)
		dropped++
	}
	c.count -= dropped
	delete(c.pages, ino)
	if c.lastIno == ino {
		c.lastFile = nil
	}
	return dropped
}

// evictOverflow trims LRU pages until within capacity.
func (c *modelCache) evictOverflow() {
	for c.count > c.capacity {
		lru := c.tail.prev
		if lru == c.head {
			return
		}
		c.dropEntry(lru)
	}
}

// Resize changes the capacity budget, evicting overflow immediately. The
// dynamic allocation strategy uses this to shift memory between the page
// cache and the fine-grained read cache.
func (c *modelCache) Resize(capacityPages int) error {
	if capacityPages < 0 {
		return errors.New("pagecache: negative capacity")
	}
	c.capacity = capacityPages
	c.evictOverflow()
	return nil
}

// FlushDirtySelect invokes fn for every dirty page match accepts, in LRU
// order (oldest first), and marks them clean. fn is the writeback. Flushed
// pages drop their data.
func (c *modelCache) FlushDirtySelect(match func(Key) bool, fn func(key Key, data []byte) error) error {
	for e := c.tail.prev; e != c.head; e = e.prev {
		if !e.dirty || !match(e.key) {
			continue
		}
		if err := fn(e.key, e.data); err != nil {
			return err
		}
		e.dirty = false
		e.data = nil
		c.dirtyN--
	}
	return nil
}

// DirtyCount reports resident dirty pages.
func (c *modelCache) DirtyCount() int { return c.dirtyN }

// pageCache is the API the twin test drives on both caches.
type pageCache interface {
	Len() int
	Capacity() int
	MemoryBytes() uint64
	Stats() (hits, accesses, inserts, evicts uint64)
	HitRatio() float64
	DirtyCount() int
	Lookup(Key) ([]byte, bool, bool)
	Contains(Key) bool
	ContainsDirty(Key) bool
	DirtyData(Key) []byte
	Insert(Key, bool, []byte) error
	MarkDirty(Key, []byte) (bool, error)
	DiscardFile(uint64, func([]byte)) int
	Resize(int) error
	FlushDirtySelect(func(Key) bool, func(Key, []byte) error) error
}

// twinEvent is one callback out of a cache: an eviction, a flushed page,
// or a buffer released by DiscardFile. data is the buffer's identity.
type twinEvent struct {
	kind  string
	key   Key
	dirty bool
	data  *byte
}

func ident(b []byte) *byte {
	if len(b) == 0 {
		return nil
	}
	return &b[0]
}

// twinSide is one cache under test with the log of its callbacks.
type twinSide struct {
	c      pageCache
	events []twinEvent
}

func (s *twinSide) onEvict(k Key, dirty bool, data []byte) {
	// Re-enter: the evicted page is already gone.
	s.events = append(s.events, twinEvent{"evict", k, dirty, ident(data)})
	if s.c.Contains(k) {
		s.events = append(s.events, twinEvent{kind: "evicted page still resident", key: k})
	}
}

// twinOp is one randomly drawn operation, applied to both sides.
type twinOp struct {
	kind   int
	key    Key
	data   []byte
	n      int
	failAt int
}

const twinPage = 512

// apply runs op on one side and returns what the caller could observe.
func (s *twinSide) apply(op twinOp) []any {
	c := s.c
	switch op.kind {
	case 0:
		data, dirty, ok := c.Lookup(op.key)
		return []any{ident(data), dirty, ok}
	case 1:
		return []any{c.Contains(op.key), c.ContainsDirty(op.key), ident(c.DirtyData(op.key))}
	case 2:
		return []any{c.Insert(op.key, op.data != nil, op.data) == nil}
	case 3:
		ok, err := c.MarkDirty(op.key, op.data)
		return []any{ok, err == nil}
	case 4:
		return []any{c.Resize(op.n) == nil}
	case 5:
		// Released buffers come out in page order here and in map order
		// in the model: compare them as a set, sorted by key below.
		var released []twinEvent
		n := c.DiscardFile(op.key.File, func(data []byte) {
			released = append(released, twinEvent{kind: "release", data: ident(data)})
		})
		return []any{n, len(released), releasedSet(released)}
	default:
		// Flush one file, or all, failing at the failAt'th page when
		// failAt > 0. While flushing, the callback re-enters the cache: a
		// counted lookup, and an insert whenever there is room (which can
		// grow the entry array under the flush loop).
		calls := 0
		fn := func(k Key, data []byte) error {
			calls++
			s.events = append(s.events, twinEvent{"flush", k, true, ident(data)})
			if calls == op.failAt {
				return errTwin
			}
			c.Lookup(Key{k.File, (k.Index + 1) % 48})
			if c.Len() < c.Capacity() {
				c.Insert(Key{k.File, 48 + uint64(calls)%8}, false, nil)
			}
			return nil
		}
		err := c.FlushDirtySelect(func(k Key) bool { return op.n < 0 || k.File == uint64(op.n) }, fn)
		return []any{err == nil, calls}
	}
}

var errTwin = errors.New("twin: writeback failed")

// releasedSet renders a DiscardFile release list order-free.
func releasedSet(evs []twinEvent) map[*byte]int {
	set := make(map[*byte]int, len(evs))
	for _, e := range evs {
		set[e.data]++
	}
	return set
}

func (s *twinSide) state() []any {
	hits, accesses, inserts, evicts := s.c.Stats()
	return []any{s.c.Len(), s.c.Capacity(), s.c.MemoryBytes(), s.c.DirtyCount(),
		hits, accesses, inserts, evicts, s.c.HitRatio()}
}

// TestSlotTableCacheMatchesMapModel drives the slot-table cache and the
// map-based model with the same seeded random operations over 3 inodes:
// lookups, residency probes, clean and dirty inserts (some malformed),
// MarkDirty, Resize up and down (to 0 too), DiscardFile and
// selective or full flushes whose callbacks re-enter the cache. At every
// step the two must return the same values, report the same Stats, Len and
// DirtyCount, and have made the same sequence of evict and flush callbacks
// (key, dirty, buffer identity) — which pins the eviction order.
func TestSlotTableCacheMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var a, b twinSide
	ca, err := New(16, twinPage, a.onEvict)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := newModel(16, twinPage, b.onEvict)
	if err != nil {
		t.Fatal(err)
	}
	a.c, b.c = ca, cb

	var seen [7]int
	logged := 0 // events already compared
	for step := 0; step < 30000; step++ {
		op := twinOp{kind: rng.Intn(7)}
		// Page indices cluster low, with a tail out to 48, so tables grow
		// unevenly across files.
		op.key = Key{File: uint64(1 + rng.Intn(3)), Index: uint64(rng.Intn(1 + rng.Intn(48)))}
		switch op.kind {
		case 2:
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				op.data = make([]byte, twinPage)
			case 4:
				op.data = make([]byte, twinPage/2) // rejected
			}
		case 3:
			op.data = make([]byte, twinPage)
			if rng.Intn(20) == 0 {
				op.data = op.data[:1] // rejected
			}
		case 4:
			op.n = rng.Intn(28)
			if rng.Intn(8) == 0 {
				op.n = 0
			}
		case 5:
			if rng.Intn(8) != 0 {
				op.kind = 0 // keep DiscardFile rare so files refill
			}
		case 6:
			op.n = int(op.key.File)
			if rng.Intn(3) == 0 {
				op.n = -1
			}
			if rng.Intn(4) == 0 {
				op.failAt = 1 + rng.Intn(3)
			}
		}
		seen[op.kind]++
		ra, rb := a.apply(op), b.apply(op)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("step %d op %+v: returned %v, model %v", step, op, ra, rb)
		}
		if sa, sb := a.state(), b.state(); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("step %d op %+v: state %v, model %v", step, op, sa, sb)
		}
		if !slices.Equal(a.events[logged:], b.events[logged:]) {
			t.Fatalf("step %d op %+v: callbacks diverge:\n%v\nmodel:\n%v", step, op, a.events[logged:], b.events[logged:])
		}
		logged = len(a.events)
	}
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("op kind %d never drawn", kind)
		}
	}
	evicted, dirtyEvicted := 0, 0
	for _, e := range a.events {
		if e.kind == "evict" {
			evicted++
			if e.dirty {
				dirtyEvicted++
			}
		}
	}
	if evicted < 1000 || dirtyEvicted < 100 {
		t.Errorf("only %d evictions (%d dirty): the sequence barely exercises the LRU", evicted, dirtyEvicted)
	}
}
