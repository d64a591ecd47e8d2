package vfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pipette/internal/pagecache"
	"pipette/internal/sim"
)

// serveTwoStep is tryServeFromCache under the rule that predates the
// one-lookup hit, kept here as the reference: every range, one page or
// several, peeks residency with the uncounted Contains before its counted
// lookups.
func serveTwoStep(v *VFS, f *File, buf []byte, off int64) bool {
	ps := int64(v.fs.PageSize())
	first := uint64(off / ps)
	last := uint64((off + int64(len(buf)) - 1) / ps)
	for p := first; p <= last; p++ {
		if !v.cache.Contains(pagecache.Key{File: f.inode.Ino, Index: p}) {
			v.cache.Lookup(pagecache.Key{File: f.inode.Ino, Index: p})
			return false
		}
	}
	for n := 0; n < len(buf); {
		abs := off + int64(n)
		p := uint64(abs / ps)
		inPage := int(abs % ps)
		chunk := min(v.fs.PageSize()-inPage, len(buf)-n)
		data, dirty, _ := v.cache.Lookup(pagecache.Key{File: f.inode.Ino, Index: p})
		if dirty {
			copy(buf[n:n+chunk], data[inPage:])
		} else if err := v.fs.Peek(f.inode, abs, buf[n:n+chunk]); err != nil {
			return false
		}
		n += chunk
	}
	return true
}

// recordEvictions gives v a fresh page cache of the same size whose evict
// hook logs each evicted key before the VFS's own hook runs.
func recordEvictions(t *testing.T, v *VFS) *[]pagecache.Key {
	t.Helper()
	var order []pagecache.Key
	c, err := pagecache.New(v.cache.Capacity(), v.fs.PageSize(), func(k pagecache.Key, dirty bool, data []byte) {
		order = append(order, k)
		v.onEvict(k, dirty, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	v.cache = c
	return &order
}

// TestOneLookupHitMatchesTwoStepRule drives one VFS through
// tryServeFromCache and a twin through the two-step reference rule with
// the same random one-page and multi-page fine reads, falling back to the
// block path on a miss, plus a few small writes. A small cache keeps
// evicting. At every step the two must agree on hit or miss, virtual
// time, all four page-cache counters and the order of evictions, and the
// bytes read must match a shadow of the file.
func TestOneLookupHitMatchesTwoStepRule(t *testing.T) {
	const pages, capacity = 40, 8
	ps := 4096
	size := int64(pages * ps)
	a, b := testVFS(t, capacity), testVFS(t, capacity)
	fa, fb := createPreloaded(t, a, "f", size), createPreloaded(t, b, "f", size)
	evA, evB := recordEvictions(t, a), recordEvictions(t, b)
	shadow := oracle(t, a, fa, 0, int(size))
	rng := rand.New(rand.NewSource(7))
	var seen [2][2]int // [multi-page][hit]

	var now sim.Time
	for step := 0; step < 5000; step++ {
		page := int64(rng.Intn(10)) // a hot set that mostly fits the cache
		if rng.Intn(3) == 0 {
			page = int64(rng.Intn(pages))
		}
		inPage := rng.Intn(ps)
		n := 1 + rng.Intn(ps-inPage) // inside one page
		multi := rng.Intn(2) == 0 && page < pages-1
		if multi {
			n = ps - inPage + 1 + rng.Intn(ps) // crosses into the next page
		}
		off := page*int64(ps) + int64(inPage)
		if off+int64(n) > size {
			n = int(size - off)
		}
		var ta, tb sim.Time
		var ea, eb error
		if rng.Intn(10) == 0 {
			data := make([]byte, 1+rng.Intn(256))
			rng.Read(data)
			off = min(off, size-int64(len(data)))
			_, ta, ea = fa.WriteAt(now, data, off)
			_, tb, eb = fb.WriteAt(now, data, off)
			copy(shadow[off:], data)
		} else {
			ga, gb := make([]byte, n), make([]byte, n)
			hitA, _ := a.tryServeFromCache(now, fa, ga, off)
			hitB := serveTwoStep(b, fb, gb, off)
			if hitA != hitB {
				t.Fatalf("step %d: [%d,+%d) hit %v, two-step rule %v", step, off, n, hitA, hitB)
			}
			ta, tb = now, now
			if !hitA {
				ta, ea = a.blockRead(now, fa, ga, off)
				tb, eb = b.blockRead(now, fb, gb, off)
			}
			if !bytes.Equal(ga, gb) || !bytes.Equal(ga, shadow[off:off+int64(n)]) {
				t.Fatalf("step %d: read [%d,+%d) returned the wrong bytes", step, off, n)
			}
			seen[btoi(multi)][btoi(hitA)]++
		}
		if ea != nil || eb != nil {
			t.Fatalf("step %d: errors %v / %v", step, ea, eb)
		}
		if ta != tb {
			t.Fatalf("step %d: done %v, two-step rule %v", step, ta, tb)
		}
		ha, aa, ia, va := a.cache.Stats()
		hb, ab, ib, vb := b.cache.Stats()
		if ha != hb || aa != ab || ia != ib || va != vb {
			t.Fatalf("step %d: cache stats %d/%d/%d/%d, two-step rule %d/%d/%d/%d",
				step, ha, aa, ia, va, hb, ab, ib, vb)
		}
		if !slices.Equal(*evA, *evB) {
			t.Fatalf("step %d: eviction order differs from the two-step rule's", step)
		}
		now = ta + sim.Microsecond
	}
	if len(*evA) == 0 {
		t.Fatal("no evictions: the LRU order went untested")
	}
	for multi, hits := range seen {
		if hits[0] == 0 || hits[1] == 0 {
			t.Fatalf("multi-page=%v: %d misses, %d hits; both must occur", multi == 1, hits[0], hits[1])
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
