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

// entry is one resident page.
type entry struct {
	key        Key
	dirty      bool
	data       []byte // nil unless dirty
	prev, next *entry
}

// EvictFunc is called when a page leaves the cache. For dirty pages, data
// holds the bytes that must be written back.
type EvictFunc func(key Key, dirty bool, data []byte)

// Cache is the page cache. Not safe for concurrent use.
//
// The index is two-level — inode, then page index — so lookups take the
// runtime's fast uint64 map path instead of hashing a struct key, and the
// common one-file-per-engine case resolves through a memoized inner map.
type Cache struct {
	capacity int // pages; 0 means empty cache (everything misses)
	pages    map[uint64]map[uint64]*entry
	count    int
	lastIno  uint64
	lastFile map[uint64]*entry
	head     *entry // sentinel: most recent after head
	tail     *entry // sentinel: least recent before tail
	free     *entry // recycled entries, chained on next
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
	c := &Cache{
		capacity: capacityPages,
		pages:    make(map[uint64]map[uint64]*entry),
		head:     &entry{},
		tail:     &entry{},
		onEvict:  onEvict,
		pageSize: pageSize,
	}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c, nil
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

// fileMap resolves the inner map of one inode, memoizing the last file
// touched (requests run page loops over a single file).
func (c *Cache) fileMap(ino uint64) map[uint64]*entry {
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

func (c *Cache) get(key Key) (*entry, bool) {
	m := c.fileMap(key.File)
	if m == nil {
		return nil, false
	}
	e, ok := m[key.Index]
	return e, ok
}

func (c *Cache) put(e *entry) {
	m := c.fileMap(e.key.File)
	if m == nil {
		m = make(map[uint64]*entry)
		c.pages[e.key.File] = m
		c.lastIno, c.lastFile = e.key.File, m
	}
	m[e.key.Index] = e
	c.count++
}

func (c *Cache) del(e *entry) {
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

func (c *Cache) newEntry() *entry {
	if e := c.free; e != nil {
		c.free = e.next
		*e = entry{}
		return e
	}
	return &entry{}
}

func (c *Cache) recycle(e *entry) {
	e.key = Key{}
	e.data = nil
	e.prev = nil
	e.next = c.free
	c.free = e
}

func (c *Cache) pushFront(e *entry) {
	e.prev = c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}

func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Lookup checks residency and counts the access. On a hit the page moves to
// the LRU front. It returns the dirty payload (nil for clean pages — the
// caller regenerates clean bytes from the device oracle).
func (c *Cache) Lookup(key Key) (data []byte, dirty, ok bool) {
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
func (c *Cache) Contains(key Key) bool {
	_, ok := c.get(key)
	return ok
}

// ContainsDirty checks for a resident dirty copy without counting an
// access or touching LRU.
func (c *Cache) ContainsDirty(key Key) bool { return c.DirtyData(key) != nil }

// DirtyData returns a resident dirty page's buffer without counting an
// access or touching LRU; nil when the page is absent or clean. The buffer
// stays cache-owned: a writer may edit it in place and pass it back to
// MarkDirty.
func (c *Cache) DirtyData(key Key) []byte {
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
func (c *Cache) Insert(key Key, dirty bool, data []byte) error {
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
func (c *Cache) MarkDirty(key Key, data []byte) (bool, error) {
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

// Remove drops a page (invalidation). Dirty data is passed to the evict
// hook for writeback.
func (c *Cache) Remove(key Key) bool {
	e, ok := c.get(key)
	if !ok {
		return false
	}
	c.dropEntry(e)
	return true
}

func (c *Cache) dropEntry(e *entry) {
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
func (c *Cache) DiscardFile(ino uint64, release func(data []byte)) int {
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
func (c *Cache) evictOverflow() {
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
func (c *Cache) Resize(capacityPages int) error {
	if capacityPages < 0 {
		return errors.New("pagecache: negative capacity")
	}
	c.capacity = capacityPages
	c.evictOverflow()
	return nil
}

// FlushDirty invokes fn for every dirty page in LRU order (oldest first)
// and marks them clean. fn is the writeback. Clean pages drop their data.
func (c *Cache) FlushDirty(fn func(key Key, data []byte) error) error {
	return c.FlushDirtySelect(func(Key) bool { return true }, fn)
}

// FlushDirtySelect flushes only the dirty pages match accepts — fsync of a
// single file, while FlushDirty is syncfs.
func (c *Cache) FlushDirtySelect(match func(Key) bool, fn func(key Key, data []byte) error) error {
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
func (c *Cache) DirtyCount() int { return c.dirtyN }
