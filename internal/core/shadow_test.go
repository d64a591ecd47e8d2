package core

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/sim"
	"pipette/internal/vfs"
)

// shadowModel is the reference implementation every read is checked
// against: a plain byte slice holding what the file must contain.
type shadowModel struct {
	data []byte
}

func newShadow(t *testing.T, s *stack, size int64) *shadowModel {
	t.Helper()
	m := &shadowModel{data: make([]byte, size)}
	// Initial content is the preloaded device pattern.
	if err := s.v.FS().Peek(s.f.Inode(), 0, m.data); err != nil {
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
	shadow := newShadow(t, s, fileSize)
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
	shadow := newShadow(t, s, fileSize)
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
