package core

// The map-based file table the dense page index replaced, kept as the
// reference the twin test drives beside it: a hash map from packed range
// key to entry, plus a map from page index to the entries touching it.

import (
	"fmt"
	"math/rand"
	"testing"
)

// keyLenBits packs a range's length into the low bits of its uint64 map
// key. Fine ranges are at most FineMaxBytes <= one page (4 KiB), so 13 bits
// hold the length and offsets up to 2^51 bytes keep distinct keys.
const keyLenBits = 13

// packed folds the key into one uint64 so the lookup table hits the
// runtime's fast integer map path instead of the generic struct hasher.
func (k rangeKey) packed() uint64 {
	return uint64(k.off)<<keyLenBits | uint64(k.n)
}

// modelTable is the per-file hash lookup table of §3.1.2 plus the per-page
// interval index used for write invalidation and containment hits.
type modelTable struct {
	ino     uint64
	entries map[uint64]*entry   // packed rangeKey -> entry
	byPage  map[uint64][]*entry // page index -> entries touching the page
	scratch []*entry            // overlapping() result, reused per call
}

func newModelTable(ino uint64) *modelTable {
	return &modelTable{
		ino:     ino,
		entries: make(map[uint64]*entry),
		byPage:  make(map[uint64][]*entry),
	}
}

// lookup returns the entry with exactly key k, if tracked.
func (t *modelTable) lookup(k rangeKey) (*entry, bool) {
	e, ok := t.entries[k.packed()]
	return e, ok
}

// index inserts e into the lookup table and the per-page index.
func (t *modelTable) index(e *entry, pageSize int) {
	t.entries[e.key.packed()] = e
	first, last := e.key.pages(uint64(pageSize))
	for p := first; p <= last; p++ {
		t.byPage[p] = append(t.byPage[p], e)
	}
}

// unindex removes e from both indexes.
func (t *modelTable) unindex(e *entry, pageSize int) {
	delete(t.entries, e.key.packed())
	first, last := e.key.pages(uint64(pageSize))
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
func (t *modelTable) findCovering(off int64, n int, pageSize int) *entry {
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
func (t *modelTable) overlapping(off int64, n int, pageSize int) []*entry {
	first := uint64(off) / uint64(pageSize)
	last := uint64(off+int64(n)-1) / uint64(pageSize)
	out := t.scratch[:0]
	for p := first; p <= last; p++ {
		for _, e := range t.byPage[p] {
			ef, _ := e.key.pages(uint64(pageSize))
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

// TestTwinFileTable drives the dense page index and the map-based model
// with the same random streams of inserts, deletes and state changes, and
// requires the same answers from both: exact lookups, covering picks, and
// write-invalidation sets in the same order.
func TestTwinFileTable(t *testing.T) {
	for _, pageSize := range []int{4096, 512} {
		for seed := int64(0); seed < 16; seed++ {
			t.Run(fmt.Sprintf("page%d/seed%d", pageSize, seed), func(t *testing.T) {
				twinTables(t, pageSize, seed, 5000)
			})
		}
	}
}

func twinTables(t *testing.T, pageSize int, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	got := newFileTable(1, pageSize)
	want := newModelTable(1)
	type pair struct{ got, want *entry }
	tracked := map[rangeKey]pair{}
	var keys []rangeKey // tracked keys, for picking at random
	fileSize := int64(16 * pageSize)
	// Ranges cluster on a few offsets so exact hits, containment and
	// overlap all happen often.
	randRange := func() (int64, int) {
		off := int64(rng.Intn(64)) * fileSize / 64
		if rng.Intn(2) == 0 {
			off += int64(rng.Intn(pageSize))
		}
		n := 1 + rng.Intn(min(pageSize, 512))
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(pageSize)
		}
		return min(off, fileSize-int64(n)), n
	}
	keyOf := func(e *entry) any {
		if e == nil {
			return nil
		}
		return e.key
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // insert
			off, n := randRange()
			k := rangeKey{off: off, n: int32(n)}
			if _, dup := tracked[k]; dup {
				continue
			}
			pr := pair{&entry{key: k}, &entry{key: k}}
			got.index(pr.got)
			want.index(pr.want, pageSize)
			tracked[k] = pr
			keys = append(keys, k)
		case r < 5 && len(keys) > 0: // delete
			i := rng.Intn(len(keys))
			pr := tracked[keys[i]]
			got.unindex(pr.got)
			want.unindex(pr.want, pageSize)
			delete(tracked, keys[i])
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		case r < 7 && len(keys) > 0: // state change
			pr := tracked[keys[rng.Intn(len(keys))]]
			st := entryState(rng.Intn(3))
			pr.got.state, pr.want.state = st, st
			slabOff := int32(-1)
			if st == stateSlab {
				slabOff = int32(rng.Intn(1 << 20))
			}
			got.mirror(pr.got, slabOff)
		case r < 9: // lookup
			off, n := randRange()
			if len(keys) > 0 && rng.Intn(2) == 0 {
				k := keys[rng.Intn(len(keys))]
				off, n = k.off, int(k.n)
				if rng.Intn(2) == 0 && n > 1 { // a window inside it
					d := rng.Intn(n)
					off, n = off+int64(d), 1+rng.Intn(n-d)
				}
			}
			exact, item := got.find(off, n)
			var covering *entry
			if item != nil {
				covering = item.e
			}
			wexact, _ := want.lookup(rangeKey{off: off, n: int32(n)})
			wcovering := want.findCovering(off, n, pageSize)
			if keyOf(exact) != keyOf(wexact) || keyOf(covering) != keyOf(wcovering) {
				t.Fatalf("op %d find(%d, %d) = %v, %v; model %v, %v",
					op, off, n, keyOf(exact), keyOf(covering), keyOf(wexact), keyOf(wcovering))
			}
		default: // write invalidation set
			off, n := randRange()
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(3*pageSize)
				off = min(off, fileSize-int64(n))
			}
			g, w := got.overlapping(off, n), want.overlapping(off, n, pageSize)
			if len(g) != len(w) {
				t.Fatalf("op %d overlapping(%d, %d): %d entries, model %d", op, off, n, len(g), len(w))
			}
			for i := range g {
				if g[i].key != w[i].key {
					t.Fatalf("op %d overlapping(%d, %d)[%d] = %v, model %v", op, off, n, i, g[i].key, w[i].key)
				}
			}
		}
	}
}
