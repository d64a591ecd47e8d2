package core

import (
	"bytes"
	"runtime"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/vfs"
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

// newFileTable is a table whose page sets spill into a pool of its own.
func newFileTable(ino uint64, pageSize int) *fileTable {
	return newTable(ino, pageSize, new(itemPool))
}

// TestColdFineReadsAllocRarely pins the detector's ghost entries to the
// entry arena and their page-set items to the item pool: the k-th new
// range on a page the table already indexes, for k up to 32, averages at
// most 1/64 allocations per cold fine read.
func TestColdFineReadsAllocRarely(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = cfg.MaxThreshold // every new range stays a ghost
	const pages, perPage, n = 64, 32, 64
	s := newStack(t, cfg, 64, pages*4096)
	for p := 0; p < pages; p++ {
		s.read(t, int64(p)*4096, n)
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

// removedFileCycleAllocs is the mean allocation count of one cycle that
// creates a file of 16 pages, fine-reads k distinct 64 B ranges of it
// (admitting each, so the drop frees slab items as well as ghosts and
// spill slots) and removes it.
func removedFileCycleAllocs(t *testing.T, k int) float64 {
	const pages, n = 16, 64
	cfg := smallCoreConfig()
	cfg.HMB.DataBytes = 256 << 10                 // room for every range: no eviction or migration
	cfg.MaintenanceEvery = 1 << 30                // and no slab reassignment
	cfg.InitialThreshold, cfg.MaxThreshold = 1, 1 // admit every first reference
	s := newStack(t, cfg, 64, pages*4096)
	buf := make([]byte, n)
	cycle := func() {
		f, err := s.v.Create("victim", pages*4096, extfs.CreateOpts{Preload: true}, vfs.ReadWrite|vfs.FineGrained)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			done, err := f.ReadFull(s.now, buf, int64(j%pages)*4096+int64(j/pages*n))
			if err != nil {
				t.Fatal(err)
			}
			s.now = done
		}
		if err := s.v.Remove("victim"); err != nil {
			t.Fatal(err)
		}
	}
	before := s.p.Stats()
	allocs := meanAllocs(20, cycle)
	if st := s.p.Stats(); st.Admissions-before.Admissions != uint64(21*k) || st.Evictions+st.Migrations+st.Reassignments != 0 {
		t.Fatalf("k=%d: reads under test were not all admitted without displacing anyone: %+v -> %+v", k, before, st)
	}
	return allocs
}

// TestRemovedFileStateRecycled: removing a file returns its entries, spill
// slots and slab items for the next file to reuse, so a cycle of create, k
// fine reads of distinct ranges and remove costs the same allocations at
// k = 1024 as at k = 64.
func TestRemovedFileStateRecycled(t *testing.T) {
	a64 := removedFileCycleAllocs(t, 64)
	a1024 := removedFileCycleAllocs(t, 1024)
	t.Logf("allocations per cycle: %.2f at k=64, %.2f at k=1024", a64, a1024)
	if a1024 > a64+0.5 {
		t.Errorf("a cycle of 1024 fine reads allocated %.2f times, one of 64 %.2f: the removed file's state is not recycled", a1024, a64)
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

// newSink keeps BenchmarkNew's result live.
var newSink *Pipette

// BenchmarkNew times assembling the framework over an existing stack at the
// quick-scale arena (12 MiB): the HMB region, the Data Area allocator and
// the handshake with the controller.
func BenchmarkNew(b *testing.B) {
	s := newStackNoPipette(b)
	cfg := DefaultConfig()
	cfg.HMB.DataBytes = 12 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(s.v, s.drvKeep, cfg)
		if err != nil {
			b.Fatal(err)
		}
		newSink = p
	}
}

// TestOverflowCyclesAllocFree: migrating a slab's items to overflow and
// repromoting them all takes the overflow buffers from the core's pool and
// gives them back, so repeated cycles allocate nothing.
func TestOverflowCyclesAllocFree(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1 // admit on first reference
	s := newStack(t, cfg, 64, 1<<20)
	p := s.p
	cachedRanges(t, s, 64) // one full slab of the 128 B class
	cls, ok := p.alloc.ClassFor(128)
	if !ok {
		t.Fatal("no class for 128 B")
	}
	cycle := func() {
		if !p.detachToOverflow(cls) {
			t.Fatal("no slab to detach")
		}
		if p.overBytes != 64*128 {
			t.Fatalf("%d bytes in overflow after a detach, want %d", p.overBytes, 64*128)
		}
		for e := p.overflow.head; e != nil; {
			next := e.overNext
			p.repromote(e)
			e = next
		}
		if p.overBytes != 0 || p.overflow.head != nil {
			t.Fatalf("%d bytes left in overflow after repromoting every entry", p.overBytes)
		}
	}
	before := p.Stats()
	if allocs := meanAllocs(50, cycle); allocs != 0 {
		t.Errorf("a detach and repromote cycle allocated %.2f times, want 0", allocs)
	}
	if got := p.Stats().Repromotions - before.Repromotions; got != 51*64 {
		t.Fatalf("%d repromotions, want %d", got, 51*64)
	}
	// The repromoted entries still serve their bytes.
	for i := 0; i < 64; i++ {
		off := int64(i)*4096 + 1024
		if got, want := s.read(t, off, 128), s.oracle(t, off, 128); !bytes.Equal(got, want) {
			t.Fatalf("range %d reads %q after the cycles, want %q", i, got, want)
		}
	}
}

// TestBufPoolReuse: a returned buffer serves the next request of its
// power-of-two size, and buffers carved from one chunk do not overlap.
func TestBufPoolReuse(t *testing.T) {
	var bp bufPool
	a, b := bp.get(100), bp.get(100)
	if len(a) != 100 || cap(a) != 128 || cap(b) != 128 {
		t.Fatalf("get(100): len %d cap %d and cap %d, want 100, 128, 128", len(a), cap(a), cap(b))
	}
	a[:cap(a)][127] = 1
	if b[0] != 0 {
		t.Fatal("carved buffers overlap")
	}
	bp.put(a)
	if c := bp.get(65); &c[:1][0] != &a[:1][0] || len(c) != 65 {
		t.Error("get(65) did not reuse the returned 128 B buffer")
	}
}
