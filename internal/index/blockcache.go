package index

// blockCache is a small exact-LRU cache of decoded run blocks, keyed by the
// run's global sequence number and block index. Runs are immutable, so a
// cached block can never go stale; entries for deleted runs are dropped
// eagerly when a merge retires their run. Its job is the LSM's second line
// of defense after the bloom filters: repeated probes of the same hot index
// block stop touching the device at all.
type blockCacheKey struct {
	seq uint64
	blk int
}

type blockCacheEntry struct {
	key        blockCacheKey
	data       []byte
	prev, next *blockCacheEntry
}

type blockCache struct {
	cap  int
	m    map[blockCacheKey]*blockCacheEntry
	head *blockCacheEntry // most recent
	tail *blockCacheEntry // eviction end
}

func newBlockCache(capacity int) *blockCache {
	return &blockCache{cap: capacity, m: make(map[blockCacheKey]*blockCacheEntry, capacity)}
}

func (c *blockCache) get(k blockCacheKey) ([]byte, bool) {
	e, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.push(e)
	return e.data, true
}

// put caches data under k. A full cache evicts its least recently used
// block and reuses that entry; put returns the evicted block's buffer (nil
// when nothing was evicted), which the caller may read its next block
// into. Without capacity nothing is cached and data itself comes back.
func (c *blockCache) put(k blockCacheKey, data []byte) []byte {
	if c.cap <= 0 {
		return data
	}
	if e, ok := c.m[k]; ok {
		old := e.data
		e.data = data
		c.unlink(e)
		c.push(e)
		return old
	}
	var e *blockCacheEntry
	var spare []byte
	for len(c.m) >= c.cap {
		e = c.tail
		c.unlink(e)
		delete(c.m, e.key)
		spare = e.data
	}
	if e == nil {
		e = &blockCacheEntry{}
	}
	e.key, e.data = k, data
	c.m[k] = e
	c.push(e)
	return spare
}

// dropRun evicts every block of a retired run.
func (c *blockCache) dropRun(seq uint64) {
	for e := c.head; e != nil; {
		next := e.next
		if e.key.seq == seq {
			c.unlink(e)
			delete(c.m, e.key)
		}
		e = next
	}
}

func (c *blockCache) push(e *blockCacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *blockCache) unlink(e *blockCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
