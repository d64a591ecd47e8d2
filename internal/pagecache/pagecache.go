// Package pagecache models the kernel page cache: 4 KiB pages in an LRU
// with a capacity budget, dirty tracking with a writeback hook, and a
// Linux-flavoured on-demand read-ahead state machine per file.
//
// Clean pages do not materialize data — the simulator can regenerate any
// clean page's bytes from the device oracle without timing, which keeps
// multi-gigabyte working sets cheap in host RAM. Dirty pages hold their
// real bytes until writeback.
//
// This is the cache the paper's block I/O baseline lives and dies by: page
// granularity promotes 4 KiB for every 128 B read, and read-ahead
// multiplies traffic for access patterns it mispredicts (§2.1).
package pagecache

import (
	"errors"
	"fmt"
)

// Key identifies a cached page.
type Key struct {
	File  uint64 // inode number
	Index uint64 // page index within the file
}

// maxIndex bounds Key.Index: Insert rejects a page index at or above it,
// and the lookups report such a key as absent. Each inode's slot table is
// dense up to its highest index inserted, so the bound keeps a hostile
// index from sizing one; below it, a table's length fits an int on 32-bit
// hosts too.
const maxIndex = 1 << 31

// entry is one resident page, or a recycled slot on the free list. Entries
// live in one array and link by slot number; slot 0 is the LRU sentinel.
type entry struct {
	key        Key
	data       []byte // nil unless dirty
	prev, next int32
	dirty      bool
}

// slotTable maps one inode's page indices to entry slots, 0 meaning
// absent. It is as long as the highest index inserted, plus one.
type slotTable struct {
	slots []int32
}

// EvictFunc is called when a page leaves the cache. For dirty pages, data
// holds the bytes that must be written back.
type EvictFunc func(key Key, dirty bool, data []byte)

// Cache is the page cache. Not safe for concurrent use.
//
// Nothing on the lookup, insert or eviction path hashes: a page resolves
// through its inode's dense slot table, indexed by page number, into one
// entry array whose prev/next slot numbers form the LRU. The inode → table
// map is consulted only when the inode changes; the common one-file case
// resolves through the memoized last table.
type Cache struct {
	capacity int     // pages; 0 means empty cache (everything misses)
	ents     []entry // ents[0]: sentinel, next is most recent, prev least
	free     int32   // recycled slots, chained on next; 0 when none
	files    map[uint64]*slotTable
	count    int
	lastIno  uint64
	last     *slotTable // nil when no memo
	onEvict  EvictFunc

	pageSize int

	hits     uint64
	accesses uint64
	inserts  uint64
	evicts   uint64
	dirtyN   int
}

// New creates a cache with a capacity budget in pages.
func New(capacityPages, pageSize int, onEvict EvictFunc) (*Cache, error) {
	if capacityPages < 0 {
		return nil, errors.New("pagecache: negative capacity")
	}
	if pageSize <= 0 {
		return nil, errors.New("pagecache: page size must be positive")
	}
	return &Cache{
		capacity: capacityPages,
		ents:     make([]entry, 1),
		files:    make(map[uint64]*slotTable),
		onEvict:  onEvict,
		pageSize: pageSize,
	}, nil
}

// Len reports resident pages.
func (c *Cache) Len() int { return c.count }

// Capacity reports the page budget.
func (c *Cache) Capacity() int { return c.capacity }

// MemoryBytes reports resident memory charged to the cache (every resident
// page counts at page granularity — the paper's Table 4 "memory usage"
// metric — even though clean pages are not materialized here).
func (c *Cache) MemoryBytes() uint64 {
	return uint64(c.count) * uint64(c.pageSize)
}

// Stats reports hits, accesses, insertions, evictions.
func (c *Cache) Stats() (hits, accesses, inserts, evicts uint64) {
	return c.hits, c.accesses, c.inserts, c.evicts
}

// HitRatio reports hits/accesses (0 when unused) — the input to the
// paper's dynamic allocation strategy (§3.2.4).
func (c *Cache) HitRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.accesses)
}

// table resolves one inode's slot table, memoizing the last file touched
// (requests run page loops over a single file). nil when the inode has
// none.
func (c *Cache) table(ino uint64) *slotTable {
	if c.last != nil && c.lastIno == ino {
		return c.last
	}
	t := c.files[ino]
	if t != nil {
		c.lastIno, c.last = ino, t
	}
	return t
}

// get returns the slot holding key, 0 when absent.
func (c *Cache) get(key Key) int32 {
	t := c.table(key.File)
	if t == nil || key.Index >= uint64(len(t.slots)) {
		return 0
	}
	return t.slots[key.Index]
}

// put records slot i as key's, growing the inode's table to reach
// key.Index (< maxIndex).
func (c *Cache) put(key Key, i int32) {
	t := c.table(key.File)
	if t == nil {
		t = &slotTable{}
		c.files[key.File] = t
		c.lastIno, c.last = key.File, t
	}
	if key.Index >= uint64(len(t.slots)) {
		t.slots = append(t.slots, make([]int32, key.Index+1-uint64(len(t.slots)))...)
	}
	t.slots[key.Index] = i
	c.count++
}

func (c *Cache) del(key Key) {
	c.table(key.File).slots[key.Index] = 0
	c.count--
}

// newEntry takes a slot from the free list, or appends one. Appending may
// move the entry array: no &c.ents[i] survives a call to it.
func (c *Cache) newEntry() int32 {
	if i := c.free; i != 0 {
		c.free = c.ents[i].next
		c.ents[i] = entry{}
		return i
	}
	c.ents = append(c.ents, entry{})
	return int32(len(c.ents) - 1)
}

func (c *Cache) recycle(i int32) {
	c.ents[i] = entry{next: c.free}
	c.free = i
}

func (c *Cache) pushFront(i int32) {
	ents := c.ents
	first := ents[0].next
	ents[i].prev = 0
	ents[i].next = first
	ents[first].prev = i
	ents[0].next = i
}

func (c *Cache) unlink(i int32) {
	ents := c.ents
	prev, next := ents[i].prev, ents[i].next
	ents[prev].next = next
	ents[next].prev = prev
}

// touch moves slot i to the LRU front.
func (c *Cache) touch(i int32) {
	if c.ents[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Lookup checks residency and counts the access. On a hit the page moves to
// the LRU front. It returns the dirty payload (nil for clean pages — the
// caller regenerates clean bytes from the device oracle).
func (c *Cache) Lookup(key Key) (data []byte, dirty, ok bool) {
	c.accesses++
	i := c.get(key)
	if i == 0 {
		return nil, false, false
	}
	c.hits++
	c.touch(i)
	e := &c.ents[i]
	return e.data, e.dirty, true
}

// Contains checks residency without counting an access or touching LRU.
func (c *Cache) Contains(key Key) bool { return c.get(key) != 0 }

// ContainsDirty checks for a resident dirty copy without counting an
// access or touching LRU.
func (c *Cache) ContainsDirty(key Key) bool { return c.DirtyData(key) != nil }

// DirtyData returns a resident dirty page's buffer without counting an
// access or touching LRU; nil when the page is absent or clean. The buffer
// stays cache-owned: a writer may edit it in place and pass it back to
// MarkDirty.
func (c *Cache) DirtyData(key Key) []byte {
	i := c.get(key)
	if i == 0 || !c.ents[i].dirty {
		return nil
	}
	return c.ents[i].data
}

// Insert makes a page resident. data must be nil for clean pages and the
// page's bytes for dirty ones (the cache takes ownership of the slice).
// Inserting over an existing entry replaces its state. Eviction keeps
// residency within capacity. key.Index must be below 1<<31.
func (c *Cache) Insert(key Key, dirty bool, data []byte) error {
	if dirty && len(data) != c.pageSize {
		return fmt.Errorf("pagecache: dirty insert with %d bytes, want %d", len(data), c.pageSize)
	}
	if !dirty && data != nil {
		return errors.New("pagecache: clean pages must not materialize data")
	}
	if key.Index >= maxIndex {
		return fmt.Errorf("pagecache: page index %d out of range (max %d)", key.Index, uint64(maxIndex-1))
	}
	if c.capacity == 0 {
		// Zero-budget cache admits nothing; dirty data is immediately
		// "written back" through the evict hook.
		if c.onEvict != nil {
			c.onEvict(key, dirty, data)
		}
		return nil
	}
	if i := c.get(key); i != 0 {
		c.setState(i, dirty, data)
		c.touch(i)
		return nil
	}
	i := c.newEntry()
	c.ents[i].key = key
	c.setState(i, dirty, data)
	c.put(key, i)
	c.pushFront(i)
	c.inserts++
	c.evictOverflow()
	return nil
}

// setState gives slot i its dirty flag and data, keeping the dirty count.
func (c *Cache) setState(i int32, dirty bool, data []byte) {
	e := &c.ents[i]
	if e.dirty != dirty {
		if dirty {
			c.dirtyN++
		} else {
			c.dirtyN--
		}
	}
	e.dirty, e.data = dirty, data
}

// MarkDirty transitions a resident page to dirty with its bytes (the cache
// takes ownership of the slice). Returns false if the page is not resident.
func (c *Cache) MarkDirty(key Key, data []byte) (bool, error) {
	if len(data) != c.pageSize {
		return false, fmt.Errorf("pagecache: dirty data %d bytes, want %d", len(data), c.pageSize)
	}
	i := c.get(key)
	if i == 0 {
		return false, nil
	}
	c.setState(i, true, data)
	c.touch(i)
	return true, nil
}

// dropEntry evicts slot i. The hook runs last, after the slot is recycled,
// so it may re-enter the cache.
func (c *Cache) dropEntry(i int32) {
	c.unlink(i)
	e := c.ents[i]
	c.del(e.key)
	c.evicts++
	if e.dirty {
		c.dirtyN--
	}
	c.recycle(i)
	if c.onEvict != nil {
		c.onEvict(e.key, e.dirty, e.data)
	}
}

// DiscardFile drops every resident page of one file, in page order,
// without invoking the evict hook — unlink semantics: dirty pages are
// abandoned, not written back. release, when non-nil, receives each dirty
// page's buffer so the caller can recycle it. Returns the number of pages
// dropped.
func (c *Cache) DiscardFile(ino uint64, release func(data []byte)) int {
	t := c.files[ino]
	if t == nil {
		return 0
	}
	delete(c.files, ino)
	if c.lastIno == ino {
		c.last = nil
	}
	dropped := 0
	for _, i := range t.slots {
		if i == 0 {
			continue
		}
		c.unlink(i)
		c.evicts++
		e := c.ents[i]
		c.recycle(i)
		if e.dirty {
			c.dirtyN--
			if release != nil && e.data != nil {
				release(e.data)
			}
		}
		dropped++
	}
	c.count -= dropped
	return dropped
}

// evictOverflow trims LRU pages until within capacity.
func (c *Cache) evictOverflow() {
	for c.count > c.capacity {
		lru := c.ents[0].prev
		if lru == 0 {
			return
		}
		c.dropEntry(lru)
	}
}

// Resize changes the capacity budget, evicting overflow immediately. The
// dynamic allocation strategy uses this to shift memory between the page
// cache and the fine-grained read cache.
func (c *Cache) Resize(capacityPages int) error {
	if capacityPages < 0 {
		return errors.New("pagecache: negative capacity")
	}
	c.capacity = capacityPages
	c.evictOverflow()
	return nil
}

// FlushDirtySelect invokes fn for every dirty page match accepts, in LRU
// order (oldest first), and marks them clean: fsync of one file. fn is the
// writeback. Flushed pages stay resident and drop their data.
func (c *Cache) FlushDirtySelect(match func(Key) bool, fn func(key Key, data []byte) error) error {
	for i := c.ents[0].prev; i != 0; i = c.ents[i].prev {
		e := &c.ents[i]
		if !e.dirty {
			continue
		}
		key, data := e.key, e.data
		if !match(key) {
			continue
		}
		if err := fn(key, data); err != nil {
			return err
		}
		e = &c.ents[i] // the callbacks may have moved the entry array
		e.dirty, e.data = false, nil
		c.dirtyN--
	}
	return nil
}

// DirtyCount reports resident dirty pages.
func (c *Cache) DirtyCount() int { return c.dirtyN }
