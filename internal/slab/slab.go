// Package slab implements the Data Area allocator of the paper's
// fine-grained read cache (§3.2.1): memory is organized into uniformly
// sized slabs, each pre-divided into items of one capacity; slabs are
// grouped into classes by item capacity; data goes to the smallest class
// that fits it.
//
// Per class, the allocator keeps the carving frontier of the last allocated
// slab (start offset of the next free item plus the number remaining), a
// cleanup array of recycled item offsets, an LRU list of live items, and an
// eviction counter. A free-slab pool serves classes that exhaust their
// slabs. Eviction and slab-migration mechanics are provided here; *policy*
// (when to evict vs. migrate, §3.2.4, and when to reassign slabs between
// classes, §3.2.3) lives in the cache layer that owns the allocator.
package slab

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Config sizes the allocator.
type Config struct {
	ArenaSize int   // total Data Area bytes
	SlabSize  int   // uniform slab size
	ItemSizes []int // ascending item capacities, one per class
}

// DefaultItemSizes returns the class capacities used by default: powers of
// two from 64 B (covers the 11.3 B LinkBench edges with tolerable internal
// fragmentation) to 4 KiB (one full page, the largest fine read).
func DefaultItemSizes() []int {
	return []int{64, 128, 256, 512, 1024, 2048, 4096}
}

// DefaultConfig returns a 60 MiB arena of 64 KiB slabs with the default
// classes, matching the HMB Data Area default.
func DefaultConfig() Config {
	return Config{ArenaSize: 60 << 20, SlabSize: 64 << 10, ItemSizes: DefaultItemSizes()}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SlabSize <= 0:
		return errors.New("slab: SlabSize must be positive")
	case c.ArenaSize < c.SlabSize:
		return fmt.Errorf("slab: arena %d smaller than one slab %d", c.ArenaSize, c.SlabSize)
	case len(c.ItemSizes) == 0:
		return errors.New("slab: at least one item class required")
	}
	if !sort.IntsAreSorted(c.ItemSizes) {
		return errors.New("slab: ItemSizes must be ascending")
	}
	for i, s := range c.ItemSizes {
		if s <= 0 || s > c.SlabSize {
			return fmt.Errorf("slab: item size %d out of (0, %d]", s, c.SlabSize)
		}
		if i > 0 && s == c.ItemSizes[i-1] {
			return fmt.Errorf("slab: duplicate item size %d", s)
		}
	}
	return nil
}

// Ref identifies a live item: its arena offset and its class.
type Ref struct {
	Off   int
	Class int
}

// Item slots. The arena is cut into slots of one grain, the greatest common
// divisor of the item sizes, so every item of every class starts on a slot
// boundary. Slot numbers are dense — slab index in the high bits, slot
// within the slab in the low strideShift bits — and they link each class's
// LRU list and index owner tables in place of a map from offset to item.
const (
	nilSlot  int32 = -1 // the end of an LRU list
	deadSlot int32 = -2 // links of a slot that holds no live item
)

// node is the LRU link of one item slot.
type node struct {
	prev, next int32
}

// slabState is one slab's per-slot LRU nodes and its live-item count. The
// nodes are allocated when a class first claims the slab and kept when it
// returns to the free pool, so an arena the cache never fills costs no
// node memory, and reclaiming a slab costs no allocation.
type slabState struct {
	nodes []node
	live  int
}

// class is the per-capacity state from the paper's Figure 3.
type class struct {
	itemSize int
	slabs    []int // base offsets of owned slabs

	carveOff  int // absolute offset of the next never-used item
	carveLeft int // items remaining in the carving slab

	recycled []int // cleanup array: offsets of freed items

	head, tail int32 // most and least recently used live slot; nilSlot when empty
	live       int
	evictions  uint64
}

// Allocator manages the arena. Not safe for concurrent use.
type Allocator struct {
	cfg       Config
	classes   []class
	freeSlabs []int
	slabs     []slabState // by slab index, base / SlabSize

	grain       int   // slot size in bytes
	grainShift  int   // log2(grain) when slots tile the arena exactly, else -1
	strideShift uint  // log2 of the slot numbers reserved per slab
	strideMask  int32 // slot number -> slot within its slab
	limit       int   // end of the last whole slab

	detached []Ref // DetachSlab's result, reused per call
}

// New creates an allocator; the whole arena starts in the free-slab pool.
func New(cfg Config) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nslabs := cfg.ArenaSize / cfg.SlabSize
	a := &Allocator{
		cfg:     cfg,
		classes: make([]class, len(cfg.ItemSizes)),
		slabs:   make([]slabState, nslabs),
		grain:   cfg.ItemSizes[0],
		limit:   nslabs * cfg.SlabSize,
	}
	for _, s := range cfg.ItemSizes[1:] {
		a.grain = gcd(a.grain, s)
	}
	perSlab := (cfg.SlabSize + a.grain - 1) / a.grain
	a.strideShift = uint(bits.Len(uint(perSlab - 1)))
	a.strideMask = 1<<a.strideShift - 1
	if uint64(nslabs)<<a.strideShift > math.MaxInt32 {
		return nil, fmt.Errorf("slab: %d slabs of %d slots exceed the slot numbering", nslabs, perSlab)
	}
	a.grainShift = -1
	if isPow2(cfg.SlabSize) && isPow2(a.grain) {
		a.grainShift = bits.TrailingZeros(uint(a.grain))
	}
	for i := range a.classes {
		c := &a.classes[i]
		c.itemSize = cfg.ItemSizes[i]
		c.head, c.tail = nilSlot, nilSlot
	}
	for base := 0; base+cfg.SlabSize <= cfg.ArenaSize; base += cfg.SlabSize {
		a.freeSlabs = append(a.freeSlabs, base)
	}
	return a, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Classes reports the number of classes.
func (a *Allocator) Classes() int { return len(a.classes) }

// ItemSize reports the capacity of a class.
func (a *Allocator) ItemSize(class int) int { return a.classes[class].itemSize }

// ClassFor returns the smallest class whose items hold size bytes.
func (a *Allocator) ClassFor(size int) (int, bool) {
	if size <= 0 {
		return 0, false
	}
	for i, s := range a.cfg.ItemSizes {
		if size <= s {
			return i, true
		}
	}
	return 0, false
}

// FreeSlabs reports the free-slab pool size.
func (a *Allocator) FreeSlabs() int { return len(a.freeSlabs) }

// SlabCount reports slabs owned by a class.
func (a *Allocator) SlabCount(class int) int { return len(a.classes[class].slabs) }

// LiveItems reports live items in a class.
func (a *Allocator) LiveItems(class int) int { return a.classes[class].live }

// Evictions reports the class's eviction counter (§3.2.3's reassignment
// monitor watches these).
func (a *Allocator) Evictions(class int) uint64 { return a.classes[class].evictions }

// UsedBytes reports bytes of arena held by classes (live or carvable).
func (a *Allocator) UsedBytes() int {
	used := 0
	for i := range a.classes {
		used += len(a.classes[i].slabs) * a.cfg.SlabSize
	}
	return used
}

// slabOf returns the base offset of the slab containing off.
func (a *Allocator) slabOf(off int) int { return off - off%a.cfg.SlabSize }

// Slots bounds the slot numbers Slot returns.
func (a *Allocator) Slots() int { return len(a.slabs) << a.strideShift }

// Slot reports the slot number of the item at arena offset off: a dense
// index below Slots, distinct for every live item, that an owner table can
// use in place of a map keyed by offset.
func (a *Allocator) Slot(off int) int { return int(a.slot(off)) }

func (a *Allocator) slot(off int) int32 {
	if a.grainShift >= 0 {
		return int32(off >> a.grainShift)
	}
	s := off / a.cfg.SlabSize
	return int32(s<<a.strideShift | (off-s*a.cfg.SlabSize)/a.grain)
}

// offOf is the inverse of slot.
func (a *Allocator) offOf(s int32) int {
	return int(s>>a.strideShift)*a.cfg.SlabSize + int(s&a.strideMask)*a.grain
}

func (a *Allocator) node(s int32) *node {
	return &a.slabs[s>>a.strideShift].nodes[s&a.strideMask]
}

// liveNode finds the slot and node of the live item at off.
func (a *Allocator) liveNode(off int) (int32, *node, bool) {
	if off < 0 || off >= a.limit {
		return 0, nil, false
	}
	s := a.slot(off)
	nodes := a.slabs[s>>a.strideShift].nodes
	if nodes == nil {
		return 0, nil, false
	}
	n := &nodes[s&a.strideMask]
	if n.prev == deadSlot || a.offOf(s) != off {
		return 0, nil, false
	}
	return s, n, true
}

func (a *Allocator) pushFront(c *class, s int32, n *node) {
	n.prev, n.next = nilSlot, c.head
	if c.head != nilSlot {
		a.node(c.head).prev = s
	} else {
		c.tail = s
	}
	c.head = s
}

func (a *Allocator) unlink(c *class, n *node) {
	if n.prev != nilSlot {
		a.node(n.prev).next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilSlot {
		a.node(n.next).prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// kill unlinks a live node and marks its slot dead.
func (a *Allocator) kill(c *class, s int32, n *node) {
	a.unlink(c, n)
	n.prev, n.next = deadSlot, deadSlot
	c.live--
	a.slabs[s>>a.strideShift].live--
}

// TryAlloc obtains a free item of the class without evicting: first from
// the cleanup array, then by carving the current slab, then by claiming a
// slab from the free pool. Returns false when all three fail — the caller
// then applies the paper's dynamic allocation strategy (evict or migrate).
func (a *Allocator) TryAlloc(class int) (Ref, bool) {
	c := &a.classes[class]
	var off int
	switch {
	case len(c.recycled) > 0:
		off = c.recycled[len(c.recycled)-1]
		c.recycled = c.recycled[:len(c.recycled)-1]
	case c.carveLeft > 0:
		off = c.carveOff
		c.carveOff += c.itemSize
		c.carveLeft--
	case len(a.freeSlabs) > 0:
		base := a.freeSlabs[len(a.freeSlabs)-1]
		a.freeSlabs = a.freeSlabs[:len(a.freeSlabs)-1]
		c.slabs = append(c.slabs, base)
		if st := &a.slabs[base/a.cfg.SlabSize]; st.nodes == nil {
			st.nodes = make([]node, 1<<a.strideShift)
			for i := range st.nodes {
				st.nodes[i] = node{deadSlot, deadSlot}
			}
		}
		c.carveOff = base
		c.carveLeft = a.cfg.SlabSize / c.itemSize
		off = c.carveOff
		c.carveOff += c.itemSize
		c.carveLeft--
	default:
		return Ref{}, false
	}
	s := a.slot(off)
	a.pushFront(c, s, a.node(s))
	c.live++
	a.slabs[s>>a.strideShift].live++
	return Ref{Off: off, Class: class}, true
}

// Touch moves a live item to the front of its class's LRU list.
func (a *Allocator) Touch(ref Ref) error {
	s, n, ok := a.liveNode(ref.Off)
	if !ok {
		return fmt.Errorf("slab: touch of dead item %d", ref.Off)
	}
	if c := &a.classes[ref.Class]; c.head != s {
		a.unlink(c, n)
		a.pushFront(c, s, n)
	}
	return nil
}

// Release frees a live item into its class's cleanup array.
func (a *Allocator) Release(ref Ref) error {
	s, n, ok := a.liveNode(ref.Off)
	if !ok {
		return fmt.Errorf("slab: release of dead item %d", ref.Off)
	}
	c := &a.classes[ref.Class]
	a.kill(c, s, n)
	c.recycled = append(c.recycled, ref.Off)
	return nil
}

// LRUTail returns the least recently used live item of a class without
// evicting it.
func (a *Allocator) LRUTail(class int) (Ref, bool) {
	c := &a.classes[class]
	if c.tail == nilSlot {
		return Ref{}, false
	}
	return Ref{Off: a.offOf(c.tail), Class: class}, true
}

// EvictLRU removes the least recently used item of the class (solution 1 of
// §3.2.1: evict within class, bump the eviction count, record the recycled
// offset in the cleanup array). The evicted ref is returned so the caller
// can drop its lookup-table entry.
func (a *Allocator) EvictLRU(class int) (Ref, bool) {
	ref, ok := a.LRUTail(class)
	if !ok {
		return Ref{}, false
	}
	if err := a.Release(ref); err != nil {
		return Ref{}, false
	}
	a.classes[class].evictions++
	return ref, true
}

// DonorClass picks a class other than exclude owning more than one slab
// (solution 2's "randomly pick an additional slab class with more than one
// slab"). pick is a random value the caller supplies (so the allocator
// stays RNG-free and deterministic under test).
func (a *Allocator) DonorClass(pick uint64, exclude int) (int, bool) {
	var candidates []int
	for i := range a.classes {
		if i != exclude && len(a.classes[i].slabs) > 1 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[pick%uint64(len(candidates))], true
}

// VictimSlab selects the slab of a class with the fewest live items — the
// cheapest slab to detach for migration or reassignment. Ties go to the
// slab the class claimed first.
func (a *Allocator) VictimSlab(class int) (base int, ok bool) {
	c := &a.classes[class]
	if len(c.slabs) == 0 {
		return 0, false
	}
	best, bestLive := -1, 0
	for _, b := range c.slabs {
		if live := a.slabs[b/a.cfg.SlabSize].live; best == -1 || live < bestLive {
			best, bestLive = b, live
		}
	}
	return best, true
}

// DetachSlab removes one slab (by base offset) from a class and returns it
// to the free pool. The refs of live items that resided in the slab are
// returned, most recently used first, so the caller can relocate their data
// and fix its lookup tables — the mechanics of §3.2.1 solution 2 and
// §3.2.3's re-balance thread. The returned slice is valid until the next
// DetachSlab call.
func (a *Allocator) DetachSlab(class, base int) ([]Ref, error) {
	c := &a.classes[class]
	idx := -1
	for i, b := range c.slabs {
		if b == base {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("slab: class %d does not own slab %d", class, base)
	}
	si := int32(base / a.cfg.SlabSize)

	// Collect and unlink live items in the slab.
	refs := a.detached[:0]
	for s := c.head; s != nilSlot; {
		n := a.node(s)
		next := n.next
		if s>>a.strideShift == si {
			refs = append(refs, Ref{Off: a.offOf(s), Class: class})
			a.kill(c, s, n)
		}
		s = next
	}
	a.detached = refs
	// Purge recycled offsets that pointed into the slab.
	kept := c.recycled[:0]
	for _, off := range c.recycled {
		if a.slabOf(off) != base {
			kept = append(kept, off)
		}
	}
	c.recycled = kept
	// Drop the carving frontier if it lived in this slab.
	if c.carveLeft > 0 && a.slabOf(c.carveOff) == base {
		c.carveOff, c.carveLeft = 0, 0
	}

	c.slabs = append(c.slabs[:idx], c.slabs[idx+1:]...)
	a.freeSlabs = append(a.freeSlabs, base)
	return refs, nil
}

// CheckInvariants validates internal consistency; property tests call it
// after random operation sequences.
func (a *Allocator) CheckInvariants() error {
	// Every slab is owned exactly once (by a class or the free pool).
	owner := make(map[int]string)
	for _, b := range a.freeSlabs {
		if prev, dup := owner[b]; dup {
			return fmt.Errorf("slab %d owned by %s and free pool", b, prev)
		}
		owner[b] = "free"
	}
	for i := range a.classes {
		for _, b := range a.classes[i].slabs {
			if prev, dup := owner[b]; dup {
				return fmt.Errorf("slab %d owned by %s and class %d", b, prev, i)
			}
			owner[b] = fmt.Sprintf("class %d", i)
			if a.slabs[b/a.cfg.SlabSize].nodes == nil {
				return fmt.Errorf("class %d owns slab %d without nodes", i, b)
			}
		}
	}
	if want := a.cfg.ArenaSize / a.cfg.SlabSize; len(owner) != want {
		return fmt.Errorf("%d slabs tracked, want %d", len(owner), want)
	}

	// Every live node sits on exactly one class list, which the per-slab
	// counts must match.
	liveBySlab := make([]int, len(a.slabs))
	for i := range a.classes {
		c := &a.classes[i]
		ownedBy := func(off int) bool {
			return owner[a.slabOf(off)] == fmt.Sprintf("class %d", i)
		}
		// LRU walk must match live count, and items must sit in owned slabs
		// at class-aligned offsets.
		count := 0
		prev := nilSlot
		for s := c.head; s != nilSlot; s = a.node(s).next {
			off := a.offOf(s)
			if !ownedBy(off) {
				return fmt.Errorf("class %d live item %d in foreign slab", i, off)
			}
			if (off-a.slabOf(off))%c.itemSize != 0 {
				return fmt.Errorf("class %d item %d misaligned", i, off)
			}
			if a.node(s).prev != prev {
				return fmt.Errorf("class %d item %d has a broken back link", i, off)
			}
			if _, _, alive := a.liveNode(off); !alive {
				return fmt.Errorf("class %d item %d listed but not live", i, off)
			}
			liveBySlab[s>>a.strideShift]++
			prev = s
			count++
			if count > c.live {
				return fmt.Errorf("class %d LRU holds more than live=%d items", i, c.live)
			}
		}
		if count != c.live || c.tail != prev {
			return fmt.Errorf("class %d live=%d tail=%d but LRU holds %d ending at %d", i, c.live, c.tail, count, prev)
		}
		for _, off := range c.recycled {
			if !ownedBy(off) {
				return fmt.Errorf("class %d recycled item %d in foreign slab", i, off)
			}
			if _, _, alive := a.liveNode(off); alive {
				return fmt.Errorf("class %d item %d both live and recycled", i, off)
			}
		}
		if c.carveLeft > 0 && !ownedBy(c.carveOff) {
			return fmt.Errorf("class %d carve frontier %d in foreign slab", i, c.carveOff)
		}
	}
	for si := range a.slabs {
		st := &a.slabs[si]
		nodes := 0
		for _, n := range st.nodes {
			if n.prev != deadSlot {
				nodes++
			}
		}
		if st.live != liveBySlab[si] || nodes != liveBySlab[si] {
			return fmt.Errorf("slab %d counts %d live, holds %d live nodes, lists %d", si, st.live, nodes, liveBySlab[si])
		}
	}
	return nil
}
