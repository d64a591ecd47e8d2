package index

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"pipette/internal/sim"
)

// memFile and memBackend hold index files in host memory, so the tests and
// benchmarks below count and time the engine's own work and nothing of a
// storage stack underneath.
type memFile struct{ data []byte }

func (f *memFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	return copy(buf, f.data[off:]), now, nil
}

func (f *memFile) WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	return copy(f.data[off:], data), now, nil
}

func (f *memFile) Sync(now sim.Time) (sim.Time, error) { return now, nil }
func (f *memFile) Close() error                        { return nil }
func (f *memFile) Size() int64                         { return int64(len(f.data)) }

type memBackend map[string]*memFile

func (b memBackend) Create(name string, size int64) (File, error) {
	f := &memFile{data: make([]byte, size)}
	b[name] = f
	return f, nil
}

func (b memBackend) open(name string) (File, error) {
	f, ok := b[name]
	if !ok {
		return nil, fmt.Errorf("no file %s", name)
	}
	return f, nil
}

func (b memBackend) OpenReader(name string, _ bool) (File, error) { return b.open(name) }
func (b memBackend) OpenDirect(name string) (File, error)         { return b.open(name) }
func (b memBackend) OpenWriter(name string) (File, error)         { return b.open(name) }
func (b memBackend) Remove(name string) error                     { delete(b, name); return nil }
func (b memBackend) PageSize() int                                { return 4096 }

func (b memBackend) Files() []string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// meanAllocs is testing.AllocsPerRun without its rounding down to a whole
// allocation: the mean number of heap allocations over runs calls of f,
// after one warm-up call. The count is process-wide, so it takes the least
// of three batches: an allocation made elsewhere in the process (the
// runtime, another goroutine) lands in one batch, while one f makes lands
// in all three.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
}

// shuffledKeys returns n distinct keys in a seeded random order.
func shuffledKeys(n int, seed int64) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestMemtableOverwriteAllocFree: updating a key already in the memtable
// rewrites its entry in place.
func TestMemtableOverwriteAllocFree(t *testing.T) {
	keys := shuffledKeys(1000, 1)
	m := newSortedMap()
	for _, k := range keys {
		m.set(k, Loc{Seg: 1}, false)
	}
	i := 0
	overwrite := func() {
		m.set(keys[i%len(keys)], Loc{Seg: uint32(i)}, i%3 == 0)
		i++
	}
	if allocs := testing.AllocsPerRun(1000, overwrite); allocs != 0 {
		t.Errorf("memtable overwrite allocated %.2f times, want 0", allocs)
	}
}

// TestMemtableInsertAllocsAmortized: the index map and the entry slice
// grow geometrically, so an insert averages at most 1/64 allocations, the
// new map's own allocations included.
func TestMemtableInsertAllocsAmortized(t *testing.T) {
	keys := shuffledKeys(8192, 2)
	fill := func() {
		m := newSortedMap()
		for _, k := range keys {
			m.set(k, Loc{Seg: 1}, false)
		}
	}
	if per := meanAllocs(3, fill) / float64(len(keys)); per > 1.0/64 {
		t.Errorf("memtable insert allocated %.4f times on average, want <= 1/64", per)
	}
}

// TestMemtableFlushReusesArena: a flush keeps the memtable's buffers for
// the next memtable, so once one flush has grown them, filling the
// memtable to its flush threshold and sorting it for the next flush
// allocates nothing.
func TestMemtableFlushReusesArena(t *testing.T) {
	cfg := Config{Kind: LSM}
	cfg.setDefaults()
	e := newLSM(memBackend{}, cfg)
	n := cfg.MemtableEntries
	keys := shuffledKeys(4*n, 6)
	now := sim.Time(0)
	var err error
	// buffers holds the first element of every buffer the memtable holds;
	// the sort's two swap roles from flush to flush.
	buffers := func() map[any]bool {
		m := e.mem
		return map[any]bool{&m.ents[:1][0]: true, &m.order[:1][0]: true, &m.items[:1][0]: true, &m.tmp[:1][0]: true}
	}
	var warm map[any]bool
	for round := 0; round < 4; round++ {
		for i, k := range keys[round*n : (round+1)*n] {
			if now, err = e.Insert(now, k, Loc{Seg: uint32(i), ValLen: 100}); err != nil {
				t.Fatal(err)
			}
		}
		if e.stats.Flushes != uint64(round+1) || e.mem.len() != 0 {
			t.Fatalf("round %d: %d flushes, %d memtable keys left", round, e.stats.Flushes, e.mem.len())
		}
		if round == 0 {
			warm = buffers() // the warm flush grew these
			continue
		}
		if got := buffers(); !maps.Equal(got, warm) {
			t.Errorf("round %d: the memtable holds buffers %v, not the %v the warm flush grew", round, got, warm)
		}
	}
	// The same cycle without the run build: fill to the threshold, sort
	// in flush order, empty.
	round := 0
	cycle := func() {
		for i, k := range keys[round%4*n : (round%4+1)*n] {
			e.mem.set(k, Loc{Seg: uint32(i)}, false)
		}
		if got := len(e.mem.ascend("")); got != n {
			t.Fatalf("flush order holds %d keys, want %d", got, n)
		}
		e.mem.reset()
		round++
	}
	if allocs := meanAllocs(4, cycle); allocs != 0 {
		t.Errorf("a fill-and-flush cycle allocated %.2f times, want 0", allocs)
	}
}

// TestSortedMapReusesDeletedEntries: under delete and insert churn at a
// constant size the entry slice and the index map stop growing.
func TestSortedMapReusesDeletedEntries(t *testing.T) {
	keys := shuffledKeys(4096, 3)
	m := newSortedMap()
	for _, k := range keys[:2048] {
		m.set(k, Loc{}, false)
	}
	i := 0
	churn := func() {
		// Retire the oldest live key and insert the next one: the map
		// stays at 2048 keys while every key comes and goes.
		m.delete(keys[i%len(keys)])
		m.set(keys[(i+2048)%len(keys)], Loc{}, false)
		i++
	}
	for j := 0; j < 4*len(keys); j++ { // let the buffers settle
		churn()
	}
	if per := meanAllocs(8192, churn); per != 0 {
		t.Errorf("delete+insert churn allocated %.4f times per step, want 0", per)
	}
	if m.len() != 2048 {
		t.Fatalf("len = %d, want 2048", m.len())
	}
}

// TestLSMLookupMissAllocFree: a lookup whose block is not cached reads it
// into the buffer of the block the full cache evicts, so it allocates
// nothing either.
func TestLSMLookupMissAllocFree(t *testing.T) {
	// Three runs, and three probes per cache slot.
	const spacing = 256
	cfg := Config{Kind: LSM, MemtableEntries: BlockCacheBlocks * spacing}
	cfg.setDefaults()
	e := newLSM(memBackend{}, cfg)
	keys := shuffledKeys(3*BlockCacheBlocks*spacing, 5)
	now := sim.Time(0)
	var err error
	for i, k := range keys {
		if now, err = e.Insert(now, k, Loc{Seg: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Keys spacing apart in sort order are about spacing/3 apart in their
	// run, more than a block holds, so they sit in different blocks, and
	// cycling through many more blocks than the cache holds misses every
	// time.
	sort.Strings(keys)
	var probes []string
	for j := 0; j < len(keys); j += spacing {
		probes = append(probes, keys[j])
	}
	i := 0
	lookup := func() {
		key := probes[i%len(probes)]
		i++
		if _, ok, _, err := e.Lookup(now, key); err != nil || !ok {
			t.Fatalf("Lookup(%q) = %v %v", key, ok, err)
		}
	}
	for j := 0; j < len(probes); j++ { // fill the cache
		lookup()
	}
	before := e.stats
	if allocs := testing.AllocsPerRun(500, lookup); allocs != 0 {
		t.Errorf("LSM lookup miss allocated %.2f times, want 0", allocs)
	}
	if e.stats.CacheHits != before.CacheHits || e.stats.CacheMisses == before.CacheMisses {
		t.Fatalf("lookups under test were not all block-cache misses: %+v -> %+v", before, e.stats)
	}
}

// newMergeEngine returns an LSM engine over memory holding exactly
// LevelFanout+1 level-0 runs of n keys in total, whose key ranges overlap,
// so the next Tick merges level 0.
func newMergeEngine(tb testing.TB, n int) (*lsmEngine, sim.Time) {
	return newMergeEngineOn(tb, memBackend{}, n)
}

// newMergeEngineOn is newMergeEngine over be.
func newMergeEngineOn(tb testing.TB, be Backend, n int) (*lsmEngine, sim.Time) {
	cfg := Config{Kind: LSM, MemtableEntries: n / (LevelFanout + 1)}
	cfg.setDefaults()
	e := newLSM(be, cfg)
	now := sim.Time(0)
	var err error
	for i, k := range shuffledKeys(n, int64(n)) {
		if now, err = e.Insert(now, k, Loc{Seg: uint32(i), Off: int64(i), ValLen: 100}); err != nil {
			tb.Fatal(err)
		}
	}
	if len(e.runs) != 5 || e.mem.len() != 0 {
		tb.Fatalf("setup left %d runs and %d memtable keys, want 5 and 0", len(e.runs), e.mem.len())
	}
	return e, now
}

// mergeAllocs counts the heap allocations of one level-0 merge of n keys
// and the run blocks it read and wrote.
func mergeAllocs(t *testing.T, n int) (allocs uint64, blocks int) {
	e, now := newMergeEngine(t, n)
	for _, r := range e.runs {
		blocks += r.blocks
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ran, _, err := e.Tick(now)
	runtime.ReadMemStats(&after)
	if err != nil || !ran || len(e.runs) != 1 {
		t.Fatalf("merge of %d keys: ran=%v err=%v, %d runs left", n, ran, err, len(e.runs))
	}
	return after.Mallocs - before.Mallocs, blocks + e.runs[0].blocks
}

// TestMergeAllocsGrowWithBlocks: a level merge reads its inputs into one
// buffer per run and copies keys into one scratch buffer, so four times the
// records cost at most one more allocation per extra block, not one per
// record.
func TestMergeAllocsGrowWithBlocks(t *testing.T) {
	const n = 5000
	a1, b1 := mergeAllocs(t, n)
	a4, b4 := mergeAllocs(t, 4*n)
	extra := int64(a4) - int64(a1)
	if limit := int64(b4-b1) + 32; extra > limit {
		t.Errorf("merging %d instead of %d records took %d more allocations (%d vs %d); "+
			"%d more blocks allow at most %d", 4*n, n, extra, a4, a1, b4-b1, limit)
	}
}

// countedFile counts the reads issued through one handle into its
// backend's tally.
type countedFile struct {
	File
	reads *[]int // the length of every read
}

func (f countedFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	*f.reads = append(*f.reads, len(buf))
	return f.File.ReadAt(now, buf, off)
}

// countingBackend is a memBackend that records the reads of its reader
// and direct handles apart.
type countingBackend struct {
	memBackend
	readerReads, directReads []int
}

func (b *countingBackend) OpenReader(name string, fine bool) (File, error) {
	f, err := b.memBackend.OpenReader(name, fine)
	return countedFile{File: f, reads: &b.readerReads}, err
}

func (b *countingBackend) OpenDirect(name string) (File, error) {
	f, err := b.memBackend.OpenDirect(name)
	return countedFile{File: f, reads: &b.directReads}, err
}

// TestMergeReadsInputsDirect: a level merge reads each input run once,
// through direct handles, MergeChunkBytes at a time, and grows the build
// buffer once, to the inputs' total block count: keys of one length never
// pack into more blocks merged than apart.
func TestMergeReadsInputsDirect(t *testing.T) {
	be := &countingBackend{memBackend: memBackend{}}
	e, now := newMergeEngineOn(t, be, 20000)
	var size, blocks int64
	wantReads := 0
	for _, r := range e.runs {
		size += r.size
		blocks += int64(r.blocks)
		wantReads += int((r.size + MergeChunkBytes - 1) / MergeChunkBytes)
	}
	if size <= 2*MergeChunkBytes {
		t.Fatalf("setup: runs of %d bytes in all fit two chunks", size)
	}
	be.readerReads, be.directReads = nil, nil
	if ran, _, err := e.Tick(now); err != nil || !ran {
		t.Fatalf("merge: ran=%v err=%v", ran, err)
	}
	if len(be.readerReads) != 0 {
		t.Errorf("the merge issued %d reads through run readers", len(be.readerReads))
	}
	total := 0
	for _, n := range be.directReads {
		if n > MergeChunkBytes {
			t.Errorf("a direct read of %d bytes, more than a %d B chunk", n, MergeChunkBytes)
		}
		total += n
	}
	if int64(total) != size || len(be.directReads) != wantReads {
		t.Errorf("the merge read %d bytes in %d reads, want %d in %d", total, len(be.directReads), size, wantReads)
	}
	if int64(cap(e.buildBuf)) != blocks*BlockBytes {
		t.Errorf("build buffer capacity %d, want the inputs' %d blocks", cap(e.buildBuf), blocks)
	}
}

// TestMergeInputsAllocFree: once a merge has filled the engine's chunk
// pool, streaming a level's runs through pooled chunks and direct handles
// allocates nothing.
func TestMergeInputsAllocFree(t *testing.T) {
	e, now := newMergeEngine(t, 20000)
	inputs := slices.Clone(e.runs)
	entries := 0
	for _, r := range inputs {
		entries += r.entries
	}
	stream := func() {
		iters, err := e.openInputs(inputs)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for i := range iters {
			for {
				if now, err = iters[i].next(now); err != nil {
					t.Fatal(err)
				}
				if !iters[i].valid {
					break
				}
				seen++
			}
		}
		if err := e.closeInputs(iters); err != nil {
			t.Fatal(err)
		}
		if seen != entries {
			t.Fatalf("streamed %d records, want %d", seen, entries)
		}
	}
	if allocs := meanAllocs(20, stream); allocs != 0 {
		t.Errorf("streaming a merge's inputs allocated %.2f times, want 0", allocs)
	}
}

// flushAllocs counts the heap allocations of flushing a memtable of n
// keys, after a first flush of n other keys has sized the engine's build
// buffers, and returns them with the flushed run's block count.
func flushAllocs(t *testing.T, n int) (allocs uint64, blocks int) {
	cfg := Config{Kind: LSM, MemtableEntries: 1 << 30} // flush by hand only
	cfg.setDefaults()
	e := newLSM(memBackend{}, cfg)
	keys := shuffledKeys(2*n, int64(n))
	now := sim.Time(0)
	var err error
	for round := 0; round < 2; round++ {
		for i, k := range keys[round*n : (round+1)*n] {
			if now, err = e.Insert(now, k, Loc{Seg: uint32(i), ValLen: 100}); err != nil {
				t.Fatal(err)
			}
		}
		// No collection mid-flush: one would empty fmt's buffer pool and
		// charge the run name's formatting to the bigger flush.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		prev := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		now, err = e.flush(now)
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		allocs = after.Mallocs - before.Mallocs
	}
	return allocs, e.runs[0].blocks
}

// TestFlushAllocsPerRun: a flush keeps its run's fences in one buffer, so
// its allocations are per run — the file, the filter, the fence buffer —
// and do not grow with its block count: four times the blocks may cost a
// few allocations more or less from flush to flush, not one per block.
func TestFlushAllocsPerRun(t *testing.T) {
	const n = 2000
	a1, b1 := flushAllocs(t, n)
	a4, b4 := flushAllocs(t, 4*n)
	t.Logf("flush of %d blocks: %d allocations; %d blocks: %d", b1, a1, b4, a4)
	if b4 < 3*b1 {
		t.Fatalf("setup: runs of %d and %d blocks", b1, b4)
	}
	if a4 > a1+8 {
		t.Errorf("a flush of %d blocks took %d allocations, one of %d blocks %d; want at most 8 more", b4, a4, b1, a1)
	}
}

// BenchmarkLSMInsert times LSM inserts of fresh keys, memtable flushes
// included.
func BenchmarkLSMInsert(b *testing.B) {
	cfg := Config{Kind: LSM}
	cfg.setDefaults()
	e := newLSM(memBackend{}, cfg)
	keys := shuffledKeys(1<<16, 4)
	now := sim.Time(0)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = e.Insert(now, keys[i%len(keys)], Loc{Seg: uint32(i), ValLen: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMMerge times one level-0 merge of five runs holding 20,000
// keys in total.
func BenchmarkLSMMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, now := newMergeEngine(b, 20000)
		b.StartTimer()
		if ran, _, err := e.Tick(now); err != nil || !ran {
			b.Fatalf("merge: ran=%v err=%v", ran, err)
		}
	}
}
