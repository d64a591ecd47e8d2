package slab

import (
	"testing"
	"testing/quick"
)

func tiny() Config {
	// 4 slabs of 1 KiB; classes 64/256/1024.
	return Config{ArenaSize: 4096, SlabSize: 1024, ItemSizes: []int{64, 256, 1024}}
}

func mustAlloc(t *testing.T, cfg Config) *Allocator {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{ArenaSize: 100, SlabSize: 0, ItemSizes: []int{64}},
		{ArenaSize: 100, SlabSize: 1024, ItemSizes: []int{64}},
		{ArenaSize: 4096, SlabSize: 1024, ItemSizes: nil},
		{ArenaSize: 4096, SlabSize: 1024, ItemSizes: []int{256, 64}},
		{ArenaSize: 4096, SlabSize: 1024, ItemSizes: []int{64, 64}},
		{ArenaSize: 4096, SlabSize: 1024, ItemSizes: []int{64, 2048}},
		{ArenaSize: 4096, SlabSize: 1024, ItemSizes: []int{0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestClassFor(t *testing.T) {
	a := mustAlloc(t, tiny())
	cases := []struct {
		size  int
		class int
		ok    bool
	}{
		{1, 0, true}, {64, 0, true}, {65, 1, true}, {256, 1, true},
		{257, 2, true}, {1024, 2, true}, {1025, 0, false}, {0, 0, false}, {-1, 0, false},
	}
	for _, c := range cases {
		got, ok := a.ClassFor(c.size)
		if ok != c.ok || (ok && got != c.class) {
			t.Errorf("ClassFor(%d) = %d,%v want %d,%v", c.size, got, ok, c.class, c.ok)
		}
	}
}

func TestAllocCarvesAndClaimsSlabs(t *testing.T) {
	a := mustAlloc(t, tiny())
	if a.FreeSlabs() != 4 {
		t.Fatalf("FreeSlabs = %d, want 4", a.FreeSlabs())
	}
	// 16 items of 64 B fill exactly one slab.
	offs := map[int]bool{}
	for i := 0; i < 16; i++ {
		ref, ok := a.TryAlloc(0)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if offs[ref.Off] {
			t.Fatalf("duplicate offset %d", ref.Off)
		}
		offs[ref.Off] = true
	}
	if a.FreeSlabs() != 3 || a.SlabCount(0) != 1 {
		t.Fatalf("after one slab of items: free=%d owned=%d", a.FreeSlabs(), a.SlabCount(0))
	}
	// 17th item claims a second slab.
	if _, ok := a.TryAlloc(0); !ok {
		t.Fatal("alloc into second slab failed")
	}
	if a.FreeSlabs() != 2 || a.SlabCount(0) != 2 {
		t.Fatalf("free=%d owned=%d", a.FreeSlabs(), a.SlabCount(0))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTryAllocExhaustion(t *testing.T) {
	a := mustAlloc(t, tiny())
	// Class 2 items are slab-sized: 4 allocs drain the arena.
	for i := 0; i < 4; i++ {
		if _, ok := a.TryAlloc(2); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := a.TryAlloc(2); ok {
		t.Fatal("alloc beyond arena succeeded")
	}
	if _, ok := a.TryAlloc(0); ok {
		t.Fatal("other class alloc beyond arena succeeded")
	}
	if a.UsedBytes() != 4096 {
		t.Fatalf("UsedBytes = %d", a.UsedBytes())
	}
}

func TestReleaseRecycles(t *testing.T) {
	a := mustAlloc(t, tiny())
	ref, _ := a.TryAlloc(0)
	if err := a.Release(ref); err != nil {
		t.Fatal(err)
	}
	if a.LiveItems(0) != 0 {
		t.Fatalf("LiveItems = %d after release", a.LiveItems(0))
	}
	// Double release (while the slot is still recycled) is an error.
	if err := a.Release(ref); err == nil {
		t.Error("double release accepted")
	}
	// Next alloc reuses the recycled offset.
	again, ok := a.TryAlloc(0)
	if !ok || again.Off != ref.Off {
		t.Fatalf("recycled alloc = %+v ok=%v, want off %d", again, ok, ref.Off)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUOrderAndEvict(t *testing.T) {
	a := mustAlloc(t, tiny())
	r1, _ := a.TryAlloc(0)
	r2, _ := a.TryAlloc(0)
	r3, _ := a.TryAlloc(0)
	// LRU tail is the oldest: r1.
	if tail, ok := a.LRUTail(0); !ok || tail != r1 {
		t.Fatalf("tail = %+v, want %+v", tail, r1)
	}
	// Touching r1 makes r2 the tail.
	if err := a.Touch(r1); err != nil {
		t.Fatal(err)
	}
	if tail, _ := a.LRUTail(0); tail != r2 {
		t.Fatalf("tail after touch = %+v, want %+v", tail, r2)
	}
	// Evicting pops r2 and bumps the counter.
	ev, ok := a.EvictLRU(0)
	if !ok || ev != r2 {
		t.Fatalf("evicted %+v, want %+v", ev, r2)
	}
	if a.Evictions(0) != 1 {
		t.Fatalf("Evictions = %d, want 1", a.Evictions(0))
	}
	if a.LiveItems(0) != 2 {
		t.Fatalf("LiveItems = %d, want 2", a.LiveItems(0))
	}
	_ = r3
	// Touch of a dead item errors.
	if err := a.Touch(r2); err == nil {
		t.Error("touch of evicted item accepted")
	}
}

func TestEvictEmptyClass(t *testing.T) {
	a := mustAlloc(t, tiny())
	if _, ok := a.EvictLRU(1); ok {
		t.Fatal("evict from empty class succeeded")
	}
	if _, ok := a.LRUTail(1); ok {
		t.Fatal("tail of empty class exists")
	}
}

func TestDonorClass(t *testing.T) {
	a := mustAlloc(t, tiny())
	// Give class 0 two slabs, class 1 one slab.
	for i := 0; i < 17; i++ {
		if _, ok := a.TryAlloc(0); !ok {
			t.Fatal("alloc")
		}
	}
	if _, ok := a.TryAlloc(1); !ok {
		t.Fatal("alloc")
	}
	// Only class 0 qualifies as donor; exclude must be honored.
	for pick := uint64(0); pick < 5; pick++ {
		d, ok := a.DonorClass(pick, 2)
		if !ok || d != 0 {
			t.Fatalf("DonorClass(pick=%d) = %d,%v", pick, d, ok)
		}
	}
	if _, ok := a.DonorClass(0, 0); ok {
		t.Fatal("excluded class returned as donor")
	}
}

func TestVictimSlabPrefersEmptiest(t *testing.T) {
	a := mustAlloc(t, tiny())
	// Fill slab 1 (16 items), then put 1 item in slab 2.
	var first []Ref
	for i := 0; i < 16; i++ {
		r, _ := a.TryAlloc(0)
		first = append(first, r)
	}
	last, _ := a.TryAlloc(0)
	// Victim should be the slab holding only `last`.
	base, ok := a.VictimSlab(0)
	if !ok {
		t.Fatal("no victim")
	}
	if base != last.Off-last.Off%1024 {
		t.Fatalf("victim = %d, want slab of %d", base, last.Off)
	}
	// Release everything in the first slab; victim flips.
	for _, r := range first {
		if err := a.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	base2, _ := a.VictimSlab(0)
	if base2 != first[0].Off-first[0].Off%1024 {
		t.Fatalf("victim after releases = %d", base2)
	}
}

func TestDetachSlab(t *testing.T) {
	a := mustAlloc(t, tiny())
	var refs []Ref
	for i := 0; i < 17; i++ { // two slabs
		r, ok := a.TryAlloc(0)
		if !ok {
			t.Fatal("alloc")
		}
		refs = append(refs, r)
	}
	// Release one item in the first slab so the cleanup array is non-empty.
	if err := a.Release(refs[3]); err != nil {
		t.Fatal(err)
	}
	firstSlab := refs[0].Off - refs[0].Off%1024
	live, err := a.DetachSlab(0, firstSlab)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 15 { // 16 carved - 1 released
		t.Fatalf("detached %d live items, want 15", len(live))
	}
	if a.SlabCount(0) != 1 || a.FreeSlabs() != 3 {
		t.Fatalf("slabs=%d free=%d", a.SlabCount(0), a.FreeSlabs())
	}
	// Items from the detached slab are gone.
	if err := a.Touch(refs[0]); err == nil {
		t.Error("item in detached slab still live")
	}
	// The 17th item (other slab) survives.
	if err := a.Touch(refs[16]); err != nil {
		t.Errorf("item outside detached slab died: %v", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Detaching an unowned slab errors.
	if _, err := a.DetachSlab(0, firstSlab); err == nil {
		t.Error("detaching free slab accepted")
	}
}

func TestDetachCarvingSlabResetsFrontier(t *testing.T) {
	a := mustAlloc(t, tiny())
	r, _ := a.TryAlloc(0) // carving slab has 15 items left
	base := r.Off - r.Off%1024
	if _, err := a.DetachSlab(0, base); err != nil {
		t.Fatal(err)
	}
	// Next alloc must claim a fresh slab, not carve the detached one.
	r2, ok := a.TryAlloc(0)
	if !ok {
		t.Fatal("alloc after detach failed")
	}
	if r2.Off-r2.Off%1024 == base && a.SlabCount(0) == 0 {
		t.Fatal("carved into detached slab")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: random alloc/release/touch/evict/detach sequences preserve all
// allocator invariants and never hand out overlapping items.
func TestRandomOpsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		a, err := New(Config{ArenaSize: 8192, SlabSize: 1024, ItemSizes: []int{64, 256, 1024}})
		if err != nil {
			return false
		}
		var live []Ref
		for _, op := range ops {
			class := int(op) % 3
			switch (op >> 2) % 5 {
			case 0, 1: // alloc
				if ref, ok := a.TryAlloc(class); ok {
					live = append(live, ref)
				}
			case 2: // release random live
				if len(live) > 0 {
					i := int(op) % len(live)
					if a.Release(live[i]) != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // touch random live
				if len(live) > 0 {
					if a.Touch(live[int(op)%len(live)]) != nil {
						return false
					}
				}
			case 4: // evict LRU
				if ref, ok := a.EvictLRU(class); ok {
					for i, l := range live {
						if l == ref {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
		}
		// Overlap check: live item ranges must be disjoint.
		type span struct{ lo, hi int }
		var spans []span
		for _, l := range live {
			spans = append(spans, span{l.Off, l.Off + a.ItemSize(l.Class)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestClaimCycleAllocFree pins the slot-indexed LRU's cost: once a slab's
// nodes exist, claiming it, allocating, touching, evicting, releasing and
// detaching it again make no allocation.
func TestClaimCycleAllocFree(t *testing.T) {
	a := mustAlloc(t, tiny())
	cycle := func() {
		r1, ok1 := a.TryAlloc(0) // claims a slab from the free pool
		r2, ok2 := a.TryAlloc(0)
		r3, ok3 := a.TryAlloc(0)
		if !ok1 || !ok2 || !ok3 || a.SlabCount(0) != 1 {
			t.Fatal("allocation failed")
		}
		if err := a.Touch(r1); err != nil {
			t.Fatal(err)
		}
		if ev, ok := a.EvictLRU(0); !ok || ev != r2 {
			t.Fatalf("evicted %+v, want %+v", ev, r2)
		}
		if err := a.Release(r1); err != nil {
			t.Fatal(err)
		}
		base, ok := a.VictimSlab(0)
		if !ok {
			t.Fatal("no victim")
		}
		refs, err := a.DetachSlab(0, base)
		if err != nil || len(refs) != 1 || refs[0] != r3 {
			t.Fatalf("detached %v, %v; want [%+v]", refs, err, r3)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("claim cycle made %v allocations, want 0", allocs)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocReleaseCycle(b *testing.B) {
	a, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	class, _ := a.ClassFor(128)
	for i := 0; i < b.N; i++ {
		ref, ok := a.TryAlloc(class)
		if !ok {
			b.Fatal("alloc failed")
		}
		if err := a.Release(ref); err != nil {
			b.Fatal(err)
		}
	}
}
