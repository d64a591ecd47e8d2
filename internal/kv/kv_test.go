package kv

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/blockdev"
	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/vfs"
)

// testBackend builds a small but real storage stack. fine additionally
// installs the Pipette fine-read engine so O_FINE_GRAINED handles work.
func testBackend(t testing.TB, fine bool) Backend {
	t.Helper()
	be, _ := testStack(t, fine)
	return be
}

// testStack is testBackend that also returns the fine-read engine (nil
// without fine).
func testStack(t testing.TB, fine bool) (Backend, *core.Pipette) {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 64
	cfg.NAND.PagesPerBlock = 64
	ctrl, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := nvme.NewDriver(ctrl, 64, nvme.DefaultCosts())
	blk, err := blockdev.New(drv, ctrl.PageSize(), blockdev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := extfs.New(ctrl)
	vcfg := vfs.DefaultConfig()
	vcfg.PageCachePages = 64
	v, err := vfs.New(fs, blk, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	var p *core.Pipette
	if fine {
		if p, err = core.New(v, drv, core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	return VFSBackend{V: v}, p
}

func testStore(t testing.TB, be Backend, cfg Config) *Store {
	t.Helper()
	s, _, err := Open(0, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testVal(key string, version int) []byte {
	return []byte(fmt.Sprintf("value-of-%s-v%d-%s", key, version, "padpadpadpadpad"))
}

func TestPutGetDelete(t *testing.T) {
	t.Parallel()
	for _, fine := range []bool{false, true} {
		fine := fine
		t.Run(fmt.Sprintf("fine=%v", fine), func(t *testing.T) {
			t.Parallel()
			s := testStore(t, testBackend(t, fine), Config{FineReads: fine})
			now := sim.Time(0)
			var err error

			// Absent key.
			if _, _, err = s.Get(now, "nope", nil); err != ErrNotFound {
				t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
			}

			// Put then Get, including overwrite.
			for v := 0; v < 3; v++ {
				for i := 0; i < 50; i++ {
					key := fmt.Sprintf("key-%03d", i)
					if now, err = s.Put(now, key, testVal(key, v)); err != nil {
						t.Fatalf("Put(%s): %v", key, err)
					}
				}
			}
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%03d", i)
				got, done, err := s.Get(now, key, nil)
				if err != nil {
					t.Fatalf("Get(%s): %v", key, err)
				}
				if done <= now {
					t.Fatalf("Get(%s) took no simulated time", key)
				}
				if want := testVal(key, 2); !bytes.Equal(got, want) {
					t.Fatalf("Get(%s) = %q, want %q", key, got, want)
				}
			}
			if s.Len() != 50 {
				t.Fatalf("Len = %d, want 50", s.Len())
			}

			// Delete half, verify gone, verify the rest intact.
			for i := 0; i < 50; i += 2 {
				key := fmt.Sprintf("key-%03d", i)
				if now, err = s.Delete(now, key); err != nil {
					t.Fatalf("Delete(%s): %v", key, err)
				}
			}
			if _, err := s.Delete(now, "key-000"); err != ErrNotFound {
				t.Fatalf("double Delete = %v, want ErrNotFound", err)
			}
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%03d", i)
				_, _, err := s.Get(now, key, nil)
				if i%2 == 0 && err != ErrNotFound {
					t.Fatalf("Get(deleted %s) = %v, want ErrNotFound", key, err)
				}
				if i%2 == 1 && err != nil {
					t.Fatalf("Get(%s): %v", key, err)
				}
			}
			if s.Len() != 25 {
				t.Fatalf("Len after deletes = %d, want 25", s.Len())
			}
			st := s.Stats()
			if st.Puts != 150 || st.Deletes != 25 {
				t.Fatalf("stats Puts=%d Deletes=%d, want 150/25", st.Puts, st.Deletes)
			}
		})
	}
}

func TestScanOrdered(t *testing.T) {
	t.Parallel()
	s := testStore(t, testBackend(t, false), Config{})
	now := sim.Time(0)
	var err error
	// Insert out of order.
	for _, i := range []int{7, 2, 9, 0, 5, 3, 8, 1, 6, 4} {
		key := fmt.Sprintf("k%02d", i)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = s.Delete(now, "k03"); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err = s.Scan(now, "k02", 4, func(key string, val []byte) bool {
		if !bytes.Equal(val, testVal(key, 0)) {
			t.Fatalf("scan value mismatch at %s", key)
		}
		got = append(got, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"k02", "k04", "k05", "k06"} // k03 deleted
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
}

func TestSegmentRotation(t *testing.T) {
	t.Parallel()
	// Tiny segments force rotation quickly: 8 KiB segments, ~100-byte
	// records → a few dozen puts per segment.
	s := testStore(t, testBackend(t, false), Config{SegmentBytes: 8 << 10})
	now := sim.Time(0)
	var err error
	const puts = 500
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("rot-%04d", i)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Rotations == 0 {
		t.Fatal("no rotations despite overflowing segments")
	}
	if s.Segments() < 2 {
		t.Fatalf("Segments = %d, want several", s.Segments())
	}
	// Every key still readable after its segment sealed.
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("rot-%04d", i)
		got, _, err := s.Get(now, key, nil)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got, testVal(key, 0)) {
			t.Fatalf("Get(%s) mismatch after rotation", key)
		}
	}
}

func TestCompactionReclaims(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	s := testStore(t, be, Config{SegmentBytes: 8 << 10})
	now := sim.Time(0)
	var err error

	// Overwrite a small working set many times: old versions pile up as
	// dead bytes across sealed segments.
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("hot-%02d", i)
			if now, err = s.Put(now, key, testVal(key, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	segsBefore := s.Segments()
	filesBefore := len(be.Files())

	ran := false
	for i := 0; i < 100; i++ {
		did, done, err := s.MaintenanceTick(now)
		if err != nil {
			t.Fatalf("MaintenanceTick: %v", err)
		}
		now = done
		if !did {
			break
		}
		ran = true
	}
	if !ran {
		t.Fatal("compaction never triggered despite dead-heavy segments")
	}
	st := s.Stats()
	if st.Compactions == 0 || st.ReclaimedBytes == 0 {
		t.Fatalf("stats Compactions=%d ReclaimedBytes=%d", st.Compactions, st.ReclaimedBytes)
	}
	if s.Segments() >= segsBefore {
		t.Fatalf("segments %d -> %d, want fewer", segsBefore, s.Segments())
	}
	if len(be.Files()) >= filesBefore {
		t.Fatalf("backend files %d -> %d, want fewer (segments removed)", filesBefore, len(be.Files()))
	}

	// Live data survives with the latest version.
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("hot-%02d", i)
		got, _, err := s.Get(now, key, nil)
		if err != nil {
			t.Fatalf("Get(%s) after compaction: %v", key, err)
		}
		if !bytes.Equal(got, testVal(key, 19)) {
			t.Fatalf("Get(%s) stale after compaction", key)
		}
	}
}

func TestCompactionPreservesDeletes(t *testing.T) {
	t.Parallel()
	s := testStore(t, testBackend(t, false), Config{SegmentBytes: 8 << 10})
	now := sim.Time(0)
	var err error
	// Enough keys to seal several segments, and half of them deleted, so
	// sealed segments pass CompactMinDeadFrac.
	const n = 600
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("d-%03d", i)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		key := fmt.Sprintf("d-%03d", i)
		if now, err = s.Delete(now, key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		did, done, err := s.MaintenanceTick(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !did {
			break
		}
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("setup: no compaction ran")
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("d-%03d", i)
		_, _, err := s.Get(now, key, nil)
		if i%2 == 0 && err != ErrNotFound {
			t.Fatalf("deleted %s resurfaced after compaction: %v", key, err)
		}
		if i%2 != 0 && err != nil {
			t.Fatalf("Get(%s) after compaction: %v", key, err)
		}
	}
}

func TestRejectsBadInputs(t *testing.T) {
	t.Parallel()
	s := testStore(t, testBackend(t, false), Config{})
	if _, err := s.Put(0, "", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	long := make([]byte, 2000)
	if _, err := s.Put(0, string(long), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	huge := make([]byte, 8<<20)
	if _, err := s.Put(0, "k", huge); err == nil {
		t.Fatal("value larger than a segment accepted")
	}
}
