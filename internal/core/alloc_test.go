package core

import (
	"bytes"
	"runtime"
	"testing"
)

// meanAllocs is testing.AllocsPerRun without its rounding down to a whole
// allocation: the mean number of heap allocations over runs calls of f,
// after one warm-up call.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestColdFineReadsAllocRarely pins the detector's ghost entries to the
// entry arena: cold fine reads of new ranges, on pages the table already
// indexes, average at most 1/64 allocations each. The per-page index
// slices are made up front, so their appends are not part of the bound.
func TestColdFineReadsAllocRarely(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = cfg.MaxThreshold // every new range stays a ghost
	const pages, perPage, n = 64, 32, 64
	s := newStack(t, cfg, 64, pages*4096)
	for p := 0; p < pages; p++ {
		s.read(t, int64(p)*4096, n)
	}
	tbl := s.p.table(s.f.Inode().Ino)
	for p := range tbl.byPage {
		tbl.byPage[p].rest = make([]pageItem, 0, perPage)
	}
	buf := make([]byte, n)
	next := 0
	read := func() {
		// Range j of page p starts n bytes further in each round: never
		// seen before, and on a page the table indexes.
		p, j := next%pages, 1+next/pages
		next++
		done, err := s.f.ReadFull(s.now, buf, int64(p)*4096+int64(j*n))
		if err != nil {
			t.Fatal(err)
		}
		s.now = done
	}
	before := s.p.Stats()
	allocs := meanAllocs(pages*perPage-1, read)
	after := s.p.Stats()
	if after.Admissions != before.Admissions || after.TempBypasses-before.TempBypasses != pages*perPage {
		t.Fatalf("reads under test were not all cold: %+v -> %+v", before, after)
	}
	if allocs > 1.0/64 {
		t.Errorf("cold fine read allocated %.4f times on average, want <= 1/64", allocs)
	}
}

// TestRecycledEntryStartsCold: an entry a write invalidated goes back to
// the arena, and the next new range that receives it starts with no
// reference count, no state and no slab item of its own.
func TestRecycledEntryStartsCold(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 2
	s := newStack(t, cfg, 64, 1<<20)
	s.read(t, 2048, 128)
	s.read(t, 2048, 128) // second reference: admitted
	if got := s.p.Stats().Admissions; got != 1 {
		t.Fatalf("setup: %d admissions, want 1", got)
	}
	if _, done, err := s.f.WriteAt(s.now, []byte("x"), 2100); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	if got := s.p.Stats().Invalidations; got != 1 {
		t.Fatalf("setup: %d invalidations, want 1", got)
	}
	off := int64(64 << 10) // a new range, on a page nobody wrote
	got := s.read(t, off, 128)
	if want := s.oracle(t, off, 128); !bytes.Equal(got, want) {
		t.Fatalf("read of a new range = %q, want %q", got, want)
	}
	if got := s.p.Stats().Admissions; got != 1 {
		t.Fatalf("a first reference was admitted (%d admissions): the recycled entry kept its count", got)
	}
}

// cachedRanges admits count 128 B ranges, one per page, into the fine
// cache and returns their offsets.
func cachedRanges(t testing.TB, s *stack, count int) []int64 {
	t.Helper()
	offs := make([]int64, count)
	for i := range offs {
		offs[i] = int64(i)*4096 + 1024
		s.read(t, offs[i], 128)
	}
	if got := s.p.Stats().Admissions; got != uint64(count) {
		t.Fatalf("setup: %d admissions, want %d", got, count)
	}
	return offs
}

// TestFineHitAllocFree pins the fine-cache hit path — the page index scan,
// the slab LRU touch and the copy out of the arena — to zero allocations.
func TestFineHitAllocFree(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1 // admit on first reference
	s := newStack(t, cfg, 64, 1<<20)
	offs := cachedRanges(t, s, 64)
	buf := make([]byte, 128)
	next := 0
	hit := func() {
		off := offs[next%len(offs)]
		next++
		done, err := s.f.ReadFull(s.now, buf, off)
		if err != nil {
			t.Fatal(err)
		}
		s.now = done
	}
	before := s.p.CacheStats().Hits
	if allocs := testing.AllocsPerRun(500, hit); allocs != 0 {
		t.Errorf("fine cache hit allocated %v times, want 0", allocs)
	}
	if hits := s.p.CacheStats().Hits - before; hits != 501 {
		t.Fatalf("%d of 501 reads hit the fine cache", hits)
	}
}

// BenchmarkFineHit times one fine-cache hit through the VFS: 128 B reads
// cycling over 64 cached ranges.
func BenchmarkFineHit(b *testing.B) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(b, cfg, 64, 1<<20)
	offs := cachedRanges(b, s, 64)
	buf := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := s.f.ReadFull(s.now, buf, offs[i%len(offs)])
		if err != nil {
			b.Fatal(err)
		}
		s.now = done
	}
}
