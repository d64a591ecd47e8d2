package slab

// The map-based allocator the slot-indexed one replaced, kept as the
// reference the twin test drives beside it: live items in a map from
// offset to heap nodes on pointer-linked per-class LRU lists.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// modelNode is an LRU list element for one live item.
type modelNode struct {
	off        int
	slabBase   int
	prev, next *modelNode
}

// class is the per-capacity state from the paper's Figure 3.
type modelClass struct {
	itemSize int
	slabs    []int // base offsets of owned slabs

	carveOff  int // absolute offset of the next never-used item
	carveLeft int // items remaining in the carving slab

	recycled []int // cleanup array: offsets of freed items

	lruHead, lruTail *modelNode // sentinels
	live             int
	evictions        uint64
}

func (c *modelClass) pushFront(n *modelNode) {
	n.prev = c.lruHead
	n.next = c.lruHead.next
	c.lruHead.next.prev = n
	c.lruHead.next = n
}

func modelUnlink(n *modelNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// modelAllocator manages the arena. Not safe for concurrent use.
type modelAllocator struct {
	cfg       Config
	classes   []modelClass
	freeSlabs []int
	items     map[int]*modelNode // live item offset -> LRU modelNode
}

// newModel creates an allocator; the whole arena starts in the free-slab pool.
func newModel(cfg Config) (*modelAllocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &modelAllocator{
		cfg:     cfg,
		classes: make([]modelClass, len(cfg.ItemSizes)),
		items:   make(map[int]*modelNode),
	}
	for i := range a.classes {
		c := &a.classes[i]
		c.itemSize = cfg.ItemSizes[i]
		c.lruHead = &modelNode{}
		c.lruTail = &modelNode{}
		c.lruHead.next = c.lruTail
		c.lruTail.prev = c.lruHead
	}
	for base := 0; base+cfg.SlabSize <= cfg.ArenaSize; base += cfg.SlabSize {
		a.freeSlabs = append(a.freeSlabs, base)
	}
	return a, nil
}

// Classes reports the number of classes.
func (a *modelAllocator) Classes() int { return len(a.classes) }

// ItemSize reports the capacity of a class.
func (a *modelAllocator) ItemSize(class int) int { return a.classes[class].itemSize }

// ClassFor returns the smallest class whose items hold size bytes.
func (a *modelAllocator) ClassFor(size int) (int, bool) {
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
func (a *modelAllocator) FreeSlabs() int { return len(a.freeSlabs) }

// SlabCount reports slabs owned by a class.
func (a *modelAllocator) SlabCount(class int) int { return len(a.classes[class].slabs) }

// LiveItems reports live items in a class.
func (a *modelAllocator) LiveItems(class int) int { return a.classes[class].live }

// Evictions reports the class's eviction counter (§3.2.3's reassignment
// monitor watches these).
func (a *modelAllocator) Evictions(class int) uint64 { return a.classes[class].evictions }

// UsedBytes reports bytes of arena held by classes (live or carvable).
func (a *modelAllocator) UsedBytes() int {
	used := 0
	for i := range a.classes {
		used += len(a.classes[i].slabs) * a.cfg.SlabSize
	}
	return used
}

// slabOf returns the base offset of the slab containing off.
func (a *modelAllocator) slabOf(off int) int { return off - off%a.cfg.SlabSize }

// TryAlloc obtains a free item of the class without evicting: first from
// the cleanup array, then by carving the current slab, then by claiming a
// slab from the free pool. Returns false when all three fail — the caller
// then applies the paper's dynamic allocation strategy (evict or migrate).
func (a *modelAllocator) TryAlloc(class int) (Ref, bool) {
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
		c.carveOff = base
		c.carveLeft = a.cfg.SlabSize / c.itemSize
		off = c.carveOff
		c.carveOff += c.itemSize
		c.carveLeft--
	default:
		return Ref{}, false
	}
	n := &modelNode{off: off, slabBase: a.slabOf(off)}
	c.pushFront(n)
	c.live++
	a.items[off] = n
	return Ref{Off: off, Class: class}, true
}

// Touch moves a live item to the front of its class's LRU list.
func (a *modelAllocator) Touch(ref Ref) error {
	n, ok := a.items[ref.Off]
	if !ok {
		return fmt.Errorf("slab: touch of dead item %d", ref.Off)
	}
	modelUnlink(n)
	a.classes[ref.Class].pushFront(n)
	return nil
}

// Release frees a live item into its class's cleanup array.
func (a *modelAllocator) Release(ref Ref) error {
	n, ok := a.items[ref.Off]
	if !ok {
		return fmt.Errorf("slab: release of dead item %d", ref.Off)
	}
	modelUnlink(n)
	delete(a.items, ref.Off)
	c := &a.classes[ref.Class]
	c.live--
	c.recycled = append(c.recycled, ref.Off)
	return nil
}

// LRUTail returns the least recently used live item of a class without
// evicting it.
func (a *modelAllocator) LRUTail(class int) (Ref, bool) {
	c := &a.classes[class]
	if c.lruTail.prev == c.lruHead {
		return Ref{}, false
	}
	return Ref{Off: c.lruTail.prev.off, Class: class}, true
}

// EvictLRU removes the least recently used item of the class (solution 1 of
// §3.2.1: evict within class, bump the eviction count, record the recycled
// offset in the cleanup array). The evicted ref is returned so the caller
// can drop its lookup-table entry.
func (a *modelAllocator) EvictLRU(class int) (Ref, bool) {
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
func (a *modelAllocator) DonorClass(pick uint64, exclude int) (int, bool) {
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
// cheapest slab to detach for migration or reassignment.
func (a *modelAllocator) VictimSlab(class int) (base int, ok bool) {
	c := &a.classes[class]
	if len(c.slabs) == 0 {
		return 0, false
	}
	liveBySlab := make(map[int]int, len(c.slabs))
	for _, b := range c.slabs {
		liveBySlab[b] = 0
	}
	for n := c.lruHead.next; n != c.lruTail; n = n.next {
		liveBySlab[n.slabBase]++
	}
	best := -1
	for _, b := range c.slabs {
		if best == -1 || liveBySlab[b] < liveBySlab[best] {
			best = b
		}
	}
	return best, true
}

// DetachSlab removes one slab (by base offset) from a class and returns it
// to the free pool. The refs of live items that resided in the slab are
// returned so the caller can relocate their data and fix its lookup tables
// — the mechanics of §3.2.1 solution 2 and §3.2.3's re-balance thread.
func (a *modelAllocator) DetachSlab(class, base int) ([]Ref, error) {
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

	// Collect and unlink live items in the slab.
	var refs []Ref
	for n := c.lruHead.next; n != c.lruTail; {
		next := n.next
		if n.slabBase == base {
			refs = append(refs, Ref{Off: n.off, Class: class})
			modelUnlink(n)
			delete(a.items, n.off)
			c.live--
		}
		n = next
	}
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

// TestTwinModel drives the allocator and the map-based model with the same
// random operation streams and requires identical answers from both: every
// allocated ref, touch and release verdict, LRU tail and eviction, donor
// pick, victim slab, and the refs a detach returns, in order.
func TestTwinModel(t *testing.T) {
	configs := []Config{
		tiny(),
		{ArenaSize: 8192, SlabSize: 1024, ItemSizes: []int{64, 256, 1024}},
		{ArenaSize: 4 << 16, SlabSize: 1 << 16, ItemSizes: DefaultItemSizes()},
		// Slots that take the division path: a slab size that is no power
		// of two (grain 8), and a grain (96) that is none.
		{ArenaSize: 10000, SlabSize: 1000, ItemSizes: []int{96, 160, 1000}},
		{ArenaSize: 6144, SlabSize: 1024, ItemSizes: []int{96, 288, 960}},
	}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				twinRun(t, cfg, seed, 3000)
			})
		}
	}
}

func twinRun(t *testing.T, cfg Config, seed int64, ops int) {
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var seen []Ref // every ref handed out, live or not
	pickRef := func() Ref {
		if len(seen) == 0 || rng.Intn(8) == 0 {
			// An offset that may be unallocated, misaligned or out of range.
			return Ref{Off: rng.Intn(cfg.ArenaSize+64) - 32, Class: rng.Intn(len(cfg.ItemSizes))}
		}
		return seen[rng.Intn(len(seen))]
	}
	for op := 0; op < ops; op++ {
		class := rng.Intn(len(cfg.ItemSizes))
		var what string
		var g, w any
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			what = "TryAlloc"
			gr, gok := got.TryAlloc(class)
			wr, wok := want.TryAlloc(class)
			g, w = []any{gr, gok}, []any{wr, wok}
			if gok {
				seen = append(seen, gr)
			}
		case 4, 5:
			what = "Touch"
			ref := pickRef()
			if want.items[ref.Off] != nil {
				ref.Class = classOf(want, ref.Off)
			}
			g, w = got.Touch(ref) == nil, want.Touch(ref) == nil
		case 6, 7:
			what = "Release"
			ref := pickRef()
			if want.items[ref.Off] != nil {
				ref.Class = classOf(want, ref.Off)
			}
			g, w = got.Release(ref) == nil, want.Release(ref) == nil
		case 8:
			what = "EvictLRU"
			gr, gok := got.EvictLRU(class)
			wr, wok := want.EvictLRU(class)
			g, w = []any{gr, gok}, []any{wr, wok}
		case 9:
			what = "LRUTail+DonorClass"
			gr, gok := got.LRUTail(class)
			wr, wok := want.LRUTail(class)
			pick := rng.Uint64()
			gd, gdok := got.DonorClass(pick, class)
			wd, wdok := want.DonorClass(pick, class)
			g, w = []any{gr, gok, gd, gdok}, []any{wr, wok, wd, wdok}
		case 10:
			what = "VictimSlab+DetachSlab"
			gb, gok := got.VictimSlab(class)
			wb, wok := want.VictimSlab(class)
			g, w = []any{gb, gok}, []any{wb, wok}
			if gok && wok && gb == wb {
				grefs, gerr := got.DetachSlab(class, gb)
				wrefs, werr := want.DetachSlab(class, wb)
				g = []any{gb, gok, append([]Ref(nil), grefs...), gerr == nil}
				w = []any{wb, wok, wrefs, werr == nil}
			}
		case 11:
			what = "DetachSlab"
			base := rng.Intn(cfg.ArenaSize/cfg.SlabSize) * cfg.SlabSize
			grefs, gerr := got.DetachSlab(class, base)
			wrefs, werr := want.DetachSlab(class, base)
			g = []any{append([]Ref(nil), grefs...), gerr == nil}
			w = []any{wrefs, werr == nil}
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("op %d %s(class %d): got %v, model %v", op, what, class, g, w)
		}
		if gs, ws := twinCounters(got, len(cfg.ItemSizes)), twinCounters(want, len(cfg.ItemSizes)); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("op %d %s: counters %v, model %v", op, what, gs, ws)
		}
		if op%100 == 0 {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("op %d %s: %v", op, what, err)
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// classOf finds the class whose LRU holds a live model item.
func classOf(m *modelAllocator, off int) int {
	for i := range m.classes {
		c := &m.classes[i]
		for n := c.lruHead.next; n != c.lruTail; n = n.next {
			if n == m.items[off] {
				return i
			}
		}
	}
	panic("live item on no class list")
}

// allocatorCounters is the read-only surface the twin test compares.
type allocatorCounters interface {
	FreeSlabs() int
	UsedBytes() int
	SlabCount(int) int
	LiveItems(int) int
	Evictions(int) uint64
}

func twinCounters(a allocatorCounters, classes int) []any {
	out := []any{a.FreeSlabs(), a.UsedBytes()}
	for c := 0; c < classes; c++ {
		out = append(out, a.SlabCount(c), a.LiveItems(c), a.Evictions(c))
	}
	return out
}
