package core

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/sim"
	"pipette/internal/vfs"
)

// shadowModel is the reference implementation every read is checked
// against: a plain byte slice holding what the file must contain.
type shadowModel struct {
	data []byte
}

func newShadow(t *testing.T, s *stack, f *vfs.File, size int64) *shadowModel {
	t.Helper()
	m := &shadowModel{data: make([]byte, size)}
	// Initial content is the preloaded device pattern.
	if err := s.v.FS().Peek(f.Inode(), 0, m.data); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShadowModelFuzz drives the full stack — page cache, block path, fine
// path, write RMW, invalidation, sync, cache churn — with a deterministic
// random operation stream and cross-checks every read against the shadow.
// This is the strongest end-to-end consistency check in the repository: if
// any layer serves stale or corrupt bytes, some read diverges.
func TestShadowModelFuzz(t *testing.T) {
	const fileSize = 2 << 20
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 48 /* small page cache -> heavy churn */, fileSize)
	shadow := newShadow(t, s, s.f, fileSize)
	rng := sim.NewRNG(20260705)

	readBuf := make([]byte, 4096)
	for op := 0; op < 8000; op++ {
		if op%250 == 0 {
			if err := checkInvariants(s.p); err != nil {
				t.Fatalf("before op %d: %v", op, err)
			}
		}
		off := int64(rng.Uint64n(fileSize - 4096))
		switch rng.Uint64n(10) {
		case 0, 1: // write a small range (RMW + invalidation path)
			n := int(rng.Uint64n(200)) + 1
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			if _, done, err := s.f.WriteAt(s.now, payload, off); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			} else {
				s.now = done
			}
			copy(shadow.data[off:], payload)
		case 2: // write a page-aligned full page
			aligned := off &^ 4095
			payload := make([]byte, 4096)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			if _, done, err := s.f.WriteAt(s.now, payload, aligned); err != nil {
				t.Fatalf("op %d page write: %v", op, err)
			} else {
				s.now = done
			}
			copy(shadow.data[aligned:], payload)
		case 3: // fsync
			done, err := s.f.Sync(s.now)
			if err != nil {
				t.Fatalf("op %d sync: %v", op, err)
			}
			s.now = done
		case 4: // large read (block path)
			n := 2048 + int(rng.Uint64n(2048))
			got := readBuf[:n]
			done, err := s.f.ReadFull(s.now, got, off)
			if err != nil {
				t.Fatalf("op %d large read: %v", op, err)
			}
			s.now = done
			if !bytes.Equal(got, shadow.data[off:off+int64(n)]) {
				t.Fatalf("op %d: large read at %d diverged from shadow", op, off)
			}
		default: // fine read (sizes 1..512)
			n := 1 + int(rng.Uint64n(512))
			got := readBuf[:n]
			done, err := s.f.ReadFull(s.now, got, off)
			if err != nil {
				t.Fatalf("op %d fine read: %v", op, err)
			}
			s.now = done
			if !bytes.Equal(got, shadow.data[off:off+int64(n)]) {
				t.Fatalf("op %d: fine read (%d B) at %d diverged from shadow", op, n, off)
			}
		}
	}

	if err := checkInvariants(s.p); err != nil {
		t.Fatal(err)
	}
	// The churn must actually have exercised the interesting machinery.
	st := s.p.Stats()
	if st.FineReads == 0 || st.Admissions == 0 || st.Invalidations == 0 {
		t.Fatalf("fuzz did not exercise the fine path: %+v", st)
	}
	cs := s.p.CacheStats()
	if cs.Hits == 0 {
		t.Fatal("fuzz never hit the fine cache")
	}
}

// TestShadowRemoveRecreate runs the shadow-model loop over two files and
// now and then removes one and creates it again, under a new inode. Every
// read matches the shadow, and after each removal checkRemoved finds
// nothing of the old inode left in the core.
func TestShadowRemoveRecreate(t *testing.T) {
	const fileSize = 1 << 20
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 48, fileSize)
	names := [2]string{"data", "other"}
	files := [2]*vfs.File{s.f}
	shadows := [2]*shadowModel{newShadow(t, s, s.f, fileSize)}
	create := func(i int) {
		f, err := s.v.Create(names[i], fileSize, extfs.CreateOpts{Preload: true}, vfs.ReadWrite|vfs.FineGrained)
		if err != nil {
			t.Fatal(err)
		}
		files[i], shadows[i] = f, newShadow(t, s, f, fileSize)
	}
	create(1)
	rng := sim.NewRNG(20261017)
	// Most fine reads repeat one of a few hundred ranges, so the threshold
	// stays low and the arena fills: removals find slab and overflow items.
	type span struct {
		off int64
		n   int
	}
	hot := make([]span, 384)
	for j := range hot {
		hot[j] = span{int64(rng.Uint64n(fileSize - 512)), 1 + int(rng.Uint64n(512))}
	}

	readBuf := make([]byte, 4096)
	removals, slabDrops, overDrops := 0, 0, 0
	for op := 0; op < 8000; op++ {
		if op%250 == 0 {
			if err := checkInvariants(s.p); err != nil {
				t.Fatalf("before op %d: %v", op, err)
			}
		}
		i := int(rng.Uint64n(2))
		f, shadow := files[i], shadows[i]
		off := int64(rng.Uint64n(fileSize - 4096))
		switch r := rng.Uint64n(200); {
		case r == 0: // remove the file and create it again
			ino := f.Inode().Ino
			tbl := s.p.tables[ino]
			items, over := liveItems(s.p), s.p.overBytes
			if err := s.v.Remove(names[i]); err != nil {
				t.Fatalf("op %d remove: %v", op, err)
			}
			if err := checkRemoved(s.p, ino, tbl); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			removals++
			if liveItems(s.p) < items {
				slabDrops++
			}
			if s.p.overBytes < over {
				overDrops++
			}
			create(i)
		case r < 30: // write a small range (RMW + invalidation path)
			n := int(rng.Uint64n(200)) + 1
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(rng.Uint64())
			}
			if _, done, err := f.WriteAt(s.now, payload, off); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			} else {
				s.now = done
			}
			copy(shadow.data[off:], payload)
		case r < 45: // fsync
			done, err := f.Sync(s.now)
			if err != nil {
				t.Fatalf("op %d sync: %v", op, err)
			}
			s.now = done
		case r < 60: // large read (block path)
			n := 2048 + int(rng.Uint64n(2048))
			got := readBuf[:n]
			done, err := f.ReadFull(s.now, got, off)
			if err != nil {
				t.Fatalf("op %d large read: %v", op, err)
			}
			s.now = done
			if !bytes.Equal(got, shadow.data[off:off+int64(n)]) {
				t.Fatalf("op %d: large read of file %d at %d diverged from shadow", op, i, off)
			}
		default: // fine read (sizes 1..512), mostly of a hot range
			n := 1 + int(rng.Uint64n(512))
			if rng.Uint64n(4) != 0 {
				h := hot[rng.Uint64n(uint64(len(hot)))]
				off, n = h.off, h.n
			}
			got := readBuf[:n]
			done, err := f.ReadFull(s.now, got, off)
			if err != nil {
				t.Fatalf("op %d fine read: %v", op, err)
			}
			s.now = done
			if !bytes.Equal(got, shadow.data[off:off+int64(n)]) {
				t.Fatalf("op %d: fine read (%d B) of file %d at %d diverged from shadow", op, n, i, off)
			}
		}
	}
	if err := checkInvariants(s.p); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d removals: %d dropped slab items, %d overflow bytes", removals, slabDrops, overDrops)
	if st := s.p.Stats(); slabDrops == 0 || overDrops == 0 || st.Invalidations == 0 {
		t.Fatalf("%d removals, %d dropping slab items and %d overflow bytes: the loop did not exercise removal over cached entries (%+v)",
			removals, slabDrops, overDrops, st)
	}
}

// liveItems counts the arena's live items.
func liveItems(p *Pipette) int {
	n := 0
	for cls := 0; cls < p.alloc.Classes(); cls++ {
		n += p.alloc.LiveItems(cls)
	}
	return n
}

// checkRemoved checks that the core holds nothing of the removed inode ino,
// whose table was tbl: no table, no memo of it, and no slab item or
// overflow byte beyond what the live tables' entries account for, with the
// page cache's capacity debited for exactly those overflow bytes.
func checkRemoved(p *Pipette, ino uint64, tbl *fileTable) error {
	if _, ok := p.tables[ino]; ok {
		return fmt.Errorf("file %d still has a table", ino)
	}
	if tbl != nil && p.lastTbl == tbl {
		return fmt.Errorf("lastTbl still points at the table of file %d", ino)
	}
	live := make([]int, p.alloc.Classes()) // slab entries by class
	overBytes := 0
	for _, t := range p.tables {
		for pg := range t.byPage {
			set := &t.byPage[pg]
			for i := 0; i < set.len(); i++ {
				it := set.at(i)
				if first, _ := it.key().pages(t.pageSize); first != uint64(pg) {
					continue // counted at its first page
				}
				switch it.e.state {
				case stateSlab:
					live[it.e.slabCls]++
				case stateOverflow:
					overBytes += len(it.e.data)
				}
			}
		}
	}
	for cls, n := range live {
		if got := p.alloc.LiveItems(cls); got != n {
			return fmt.Errorf("class %d holds %d live items for %d live entries", cls, got, n)
		}
	}
	if overBytes != p.overBytes {
		return fmt.Errorf("overflow holds %d bytes, the live entries %d", p.overBytes, overBytes)
	}
	want := max(p.basePCPages-(p.overBytes+p.pageSize-1)/p.pageSize, p.cfg.PageCacheFloorPages)
	if got := p.v.PageCache().Capacity(); got != want {
		return fmt.Errorf("page cache capacity %d pages, want %d for %d overflow bytes", got, want, p.overBytes)
	}
	return nil
}

// checkInvariants cross-checks the framework's indexes: every entry is
// indexed, under its own key and slab offset, on each page it spans and on
// no other; every stateSlab entry owns its slab slot; every owned slot
// holds a stateSlab entry at that slot; and the overflow FIFO holds exactly
// the stateOverflow entries and the bytes accounted to it.
func checkInvariants(p *Pipette) error {
	seen := map[*entry]int{} // entry -> pages indexing it
	for _, tbl := range p.tables {
		for pg := range tbl.byPage {
			set := &tbl.byPage[pg]
			for i := 0; i < set.len(); i++ {
				it := set.at(i)
				e := it.e
				first, last := e.key.pages(tbl.pageSize)
				mirror := int32(-1)
				if e.state == stateSlab {
					mirror = int32(e.slabOff)
				}
				switch {
				case it.key() != e.key || e.table != tbl:
					return fmt.Errorf("page %d of file %d indexes %v under key %v", pg, tbl.ino, e.key, it.key())
				case it.slabOff != mirror:
					return fmt.Errorf("page %d of file %d holds slab offset %d for %v, entry in state %d at %d", pg, tbl.ino, it.slabOff, e.key, e.state, e.slabOff)
				case uint64(pg) < first || uint64(pg) > last:
					return fmt.Errorf("page %d of file %d indexes %v, which spans pages %d-%d", pg, tbl.ino, e.key, first, last)
				}
				seen[e]++
			}
		}
	}
	slabEntries := 0
	for e, n := range seen {
		first, last := e.key.pages(e.table.pageSize)
		if n != int(last-first+1) {
			return fmt.Errorf("entry %v of file %d is indexed %d times over %d pages", e.key, e.table.ino, n, last-first+1)
		}
		if e.state != stateSlab {
			continue
		}
		slabEntries++
		if s := p.alloc.Slot(int(e.slabOff)); s >= len(p.owners) || p.owners[s] != e {
			return fmt.Errorf("slab entry %v does not own its slot %d", e.key, s)
		}
	}
	owned := 0
	for s, e := range p.owners {
		if e == nil {
			continue
		}
		owned++
		if e.state != stateSlab || p.alloc.Slot(int(e.slabOff)) != s || seen[e] == 0 {
			return fmt.Errorf("slot %d is owned by entry %v in state %d at offset %d", s, e.key, e.state, e.slabOff)
		}
	}
	if owned != slabEntries {
		return fmt.Errorf("%d owned slots for %d slab entries", owned, slabEntries)
	}
	order, err := p.overflow.order()
	if err != nil {
		return fmt.Errorf("overflow FIFO: %v", err)
	}
	overBytes := 0
	for _, e := range order {
		if e.state != stateOverflow || seen[e] == 0 {
			return fmt.Errorf("overflow FIFO holds entry %v in state %d, indexed %d times", e.key, e.state, seen[e])
		}
		overBytes += len(e.data)
	}
	overEntries := 0
	for e := range seen {
		if e.state == stateOverflow {
			overEntries++
		}
	}
	if overEntries != len(order) || overBytes != p.overBytes {
		return fmt.Errorf("overflow FIFO holds %d entries and %d bytes, %d entries are in overflow and %d bytes accounted",
			len(order), overBytes, overEntries, p.overBytes)
	}
	return p.alloc.CheckInvariants()
}

// TestShadowModelNoCacheVariant repeats the fuzz with the cache disabled:
// the byte path itself (Constructor -> Info Area -> Read Engine -> TempBuf)
// must be correct without any caching.
func TestShadowModelNoCacheVariant(t *testing.T) {
	const fileSize = 1 << 20
	cfg := smallCoreConfig()
	s := newStack(t, cfg, 32, fileSize)
	s.p.DisableCache()
	shadow := newShadow(t, s, s.f, fileSize)
	rng := sim.NewRNG(7777)

	for op := 0; op < 3000; op++ {
		off := int64(rng.Uint64n(fileSize - 600))
		if rng.Uint64n(5) == 0 {
			n := int(rng.Uint64n(100)) + 1
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			if _, done, err := s.f.WriteAt(s.now, payload, off); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			} else {
				s.now = done
			}
			copy(shadow.data[off:], payload)
			continue
		}
		n := 1 + int(rng.Uint64n(500))
		got := make([]byte, n)
		done, err := s.f.ReadFull(s.now, got, off)
		if err != nil {
			t.Fatalf("op %d read: %v", op, err)
		}
		s.now = done
		if !bytes.Equal(got, shadow.data[off:off+int64(n)]) {
			t.Fatalf("op %d: no-cache read diverged at %d (+%d)", op, off, n)
		}
	}
}

// TestShadowAcrossReopen checks that data survives file-handle churn: a
// second descriptor without FineGrained must see identical bytes through
// the block path.
func TestShadowAcrossReopen(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	payload := []byte("written-through-fine-handle")
	if _, done, err := s.f.WriteAt(s.now, payload, 70000); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	plain, err := s.v.Open("data", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := plain.ReadFull(s.now, got, 70000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("block-path handle read %q", got)
	}
}
