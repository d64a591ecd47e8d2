package core

import (
	"bytes"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/hmb"
	"pipette/internal/vfs"
)

func TestMultiFileTablesIndependent(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	f2, err := s.v.Create("other", 1<<20, extfs.CreateOpts{Preload: true}, vfs.ReadWrite|vfs.FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	// Same offset in both files: distinct content, distinct cache entries.
	buf1 := s.read(t, 4096, 128)
	buf2 := make([]byte, 128)
	done, err := f2.ReadFull(s.now, buf2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s.now = done
	if bytes.Equal(buf1, buf2) {
		t.Fatal("two preloaded files returned identical content at the same offset")
	}
	// A write to file 2 must not invalidate file 1's entry.
	invBefore := s.p.Stats().Invalidations
	if _, done, err := f2.WriteAt(s.now, []byte("x"), 4100); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	if s.p.Stats().Invalidations != invBefore+1 {
		t.Fatalf("invalidations = %d, want exactly one", s.p.Stats().Invalidations-invBefore)
	}
	// File 1's range still hits.
	hitsBefore := s.p.CacheStats().Hits
	got := s.read(t, 4096, 128)
	if !bytes.Equal(got, buf1) {
		t.Fatal("file 1 content changed")
	}
	if s.p.CacheStats().Hits != hitsBefore+1 {
		t.Fatal("file 1 entry was invalidated by file 2's write")
	}
}

func TestPageCacheFloorRespected(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.MinThreshold, cfg.MaxThreshold = cfg.InitialThreshold, cfg.InitialThreshold
	cfg.PageCacheFloorPages = 6
	cfg.OverflowMaxBytes = 1 << 20
	s := newStack(t, cfg, 8 /* page cache barely above floor */, 4<<20)
	// Hammer enough distinct small ranges to exhaust the arena and demand
	// migrations; the page cache must never shrink below the floor.
	for i := 0; i < 3000; i++ {
		s.read(t, int64(i)*1024, 100)
		if got := s.v.PageCache().Capacity(); got < cfg.PageCacheFloorPages {
			t.Fatalf("page cache capacity %d below floor %d", got, cfg.PageCacheFloorPages)
		}
	}
}

func TestOverflowBoundEnforced(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.MinThreshold, cfg.MaxThreshold = cfg.InitialThreshold, cfg.InitialThreshold
	cfg.MaintenanceEvery = 64
	cfg.OverflowMaxBytes = 16 << 10
	s := newStack(t, cfg, 64, 4<<20)
	// Build multi-class occupancy, then churn so reassignment and
	// migration push items to overflow repeatedly.
	for i := 0; i < 300; i++ {
		s.read(t, int64(i)*2048, 1024)
	}
	for i := 0; i < 4000; i++ {
		s.read(t, int64(i)*128, 100)
	}
	st := s.p.Stats()
	if st.Migrations == 0 && st.Reassignments == 0 {
		t.Skip("no overflow producers fired at this size")
	}
	// MemoryBytes = arena use + overflow; overflow alone is bounded.
	if over := int(s.p.MemoryBytes()) - s.p.Allocator().UsedBytes(); over > cfg.OverflowMaxBytes {
		t.Fatalf("overflow %d exceeds bound %d", over, cfg.OverflowMaxBytes)
	}
}

func TestGhostSurvivesEviction(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 2
	cfg.MinThreshold, cfg.MaxThreshold = cfg.InitialThreshold, cfg.InitialThreshold
	cfg.OverflowMaxBytes = 0
	s := newStack(t, cfg, 64, 4<<20)

	// Admit a range (two accesses at T=2).
	s.read(t, 0, 100)
	s.read(t, 0, 100)
	if s.p.Stats().Admissions != 1 {
		t.Fatalf("setup: %+v", s.p.Stats())
	}
	// Evict it with arena pressure from distinct ranges.
	pressure := (64 << 10) / 128 * 2
	for i := 1; i <= pressure; i++ {
		s.read(t, int64(i)*2048, 100)
		s.read(t, int64(i)*2048, 100)
	}
	if s.p.Stats().Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// The original range's ghost kept its reference count: a single access
	// re-admits immediately (refCount 3 >= T=2), rather than bouncing
	// through the TempBuf again.
	adBefore := s.p.Stats().Admissions
	s.read(t, 0, 100)
	st := s.p.Stats()
	if st.Admissions != adBefore+1 {
		t.Fatalf("evicted range not re-admitted on first touch: %+v", st)
	}
}

func TestInfoRingNeverOverflowsSynchronously(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 8<<20)
	// Synchronous operation: each fine read pushes and the device consumes
	// before the next, so more reads than the ring has slots never find
	// it full.
	for i := 0; i < hmb.InfoSlots+50; i++ {
		got := s.read(t, int64(i)*4096, 64)
		want := s.oracle(t, int64(i)*4096, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d wrong", i)
		}
	}
	if s.p.Region().Info().Pending() != 0 {
		t.Fatal("records left pending")
	}
}

func TestDeclinedReadsDoNotTouchDetector(t *testing.T) {
	cfg := smallCoreConfig()
	s := newStack(t, cfg, 64, 1<<20)
	// 4 KiB reads are declined by the Dispatcher; they must not count as
	// fine accesses or create table entries. Stride past the read-ahead
	// window so every read actually reaches the router.
	for i := 0; i < 20; i++ {
		s.read(t, int64(i)*5*4096, 4096)
	}
	if s.p.CacheStats().Accesses != 0 {
		t.Fatalf("declined reads counted as fine accesses: %+v", s.p.CacheStats())
	}
	if got := s.p.Stats().Declined; got != 20 {
		t.Fatalf("Declined = %d", got)
	}
}

// A floor above the page cache's budget is clamped to the budget: the
// rebalance each write runs must never grow the page cache past it.
func TestPageCacheFloorClampedToBudget(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.PageCacheFloorPages = 256
	s := newStack(t, cfg, 16, 1<<20)
	s.read(t, 2048, 128) // the file is now tracked
	if _, done, err := s.f.WriteAt(s.now, []byte("NEWDATA!"), 2100); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	if s.p.Stats().Invalidations != 1 {
		t.Fatalf("setup: Invalidations = %d, want 1", s.p.Stats().Invalidations)
	}
	if got := s.v.PageCache().Capacity(); got != 16 {
		t.Fatalf("page cache capacity %d after OnWrite, budget 16", got)
	}
}
