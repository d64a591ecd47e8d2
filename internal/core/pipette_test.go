package core

import (
	"bytes"
	"testing"

	"pipette/internal/blockdev"
	"pipette/internal/extfs"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/vfs"
)

// stack bundles a full simulated system for tests.
type stack struct {
	ctrl *ssd.Controller
	v    *vfs.VFS
	p    *Pipette
	f    *vfs.File
	now  sim.Time
}

func smallCoreConfig() Config {
	cfg := DefaultConfig()
	cfg.HMB = hmb.Config{DataBytes: 64 << 10, TempBufBytes: 16 << 10, TempSlot: 4096, InfoSlots: 64}
	cfg.SlabSize = 8 << 10
	cfg.ItemSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	cfg.AdaptWindow = 64
	cfg.MaintenanceEvery = 256
	cfg.PageCacheFloorPages = 4
	cfg.OverflowMaxBytes = 32 << 10
	return cfg
}

func newStack(t testing.TB, coreCfg Config, pcPages int, fileSize int64) *stack {
	t.Helper()
	scfg := ssd.DefaultConfig()
	scfg.NAND.Channels = 2
	scfg.NAND.WaysPerChannel = 2
	scfg.NAND.PlanesPerDie = 1
	scfg.NAND.BlocksPerPlane = 64
	scfg.NAND.PagesPerBlock = 64
	ctrl, err := ssd.New(scfg)
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
	vcfg.PageCachePages = pcPages
	v, err := vfs.New(fs, blk, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(v, drv, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Create("data", fileSize, extfs.CreateOpts{Preload: true},
		vfs.ReadWrite|vfs.FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{ctrl: ctrl, v: v, p: p, f: f}
}

func (s *stack) read(t testing.TB, off int64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	done, err := s.f.ReadFull(s.now, buf, off)
	if err != nil {
		t.Fatalf("read(%d,%d): %v", off, n, err)
	}
	if done < s.now {
		t.Fatal("time went backwards")
	}
	s.now = done
	return buf
}

func (s *stack) oracle(t testing.TB, off int64, n int) []byte {
	t.Helper()
	want := make([]byte, n)
	if err := s.v.FS().Peek(s.f.Inode(), off, want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.FineMaxBytes = 0 },
		func(c *Config) { c.MinThreshold = 0 },
		func(c *Config) { c.InitialThreshold = 99 },
		func(c *Config) { c.AdaptWindow = 0 },
		func(c *Config) { c.MinReuseRatio = 0.9; c.MaxReuseRatio = 0.1 },
		func(c *Config) { c.ReassignStages = 0 },
		func(c *Config) { c.MaintenanceEvery = 0 },
		func(c *Config) { c.PageCacheFloorPages = -1 },
		func(c *Config) { c.OverflowMaxBytes = -1 },
		func(c *Config) { c.SlabSize = 0 },
		func(c *Config) { c.HMB.DataBytes = 1 << 31 },
	}
	for i, m := range mut {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsSmallTempSlot(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.HMB.TempSlot = 128
	cfg.FineMaxBytes = 2048
	s := newStackNoPipette(t)
	if _, err := New(s.v, s.drvKeep, cfg); err == nil {
		t.Fatal("TempSlot < FineMaxBytes accepted")
	}
}

// newStackNoPipette builds the stack without the framework, for
// construction-error tests.
type bareStack struct {
	v       *vfs.VFS
	drvKeep *nvme.Driver
}

func newStackNoPipette(t testing.TB) *bareStack {
	t.Helper()
	scfg := ssd.DefaultConfig()
	scfg.NAND.Channels = 2
	scfg.NAND.WaysPerChannel = 1
	scfg.NAND.PlanesPerDie = 1
	scfg.NAND.BlocksPerPlane = 16
	scfg.NAND.PagesPerBlock = 16
	ctrl, err := ssd.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := nvme.NewDriver(ctrl, 16, nvme.DefaultCosts())
	blk, err := blockdev.New(drv, ctrl.PageSize(), blockdev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := vfs.New(extfs.New(ctrl), blk, vfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &bareStack{v: v, drvKeep: drv}
}

func TestFineReadCorrectness(t *testing.T) {
	s := newStack(t, smallCoreConfig(), 64, 1<<20)
	for _, tc := range []struct {
		off int64
		n   int
	}{{0, 128}, {777, 64}, {4096 - 16, 32} /* cross-page */, {1<<20 - 128, 128}} {
		got := s.read(t, tc.off, tc.n)
		if !bytes.Equal(got, s.oracle(t, tc.off, tc.n)) {
			t.Fatalf("fine read (%d,%d) mismatch", tc.off, tc.n)
		}
	}
	if s.p.Stats().FineReads != 4 {
		t.Fatalf("FineReads = %d", s.p.Stats().FineReads)
	}
}

func TestDispatcherDeclinesLargeReads(t *testing.T) {
	s := newStack(t, smallCoreConfig(), 64, 1<<20)
	got := s.read(t, 0, 4096) // 4096 > FineMaxBytes 2048
	if !bytes.Equal(got, s.oracle(t, 0, 4096)) {
		t.Fatal("block-path fallback wrong data")
	}
	st := s.p.Stats()
	if st.Declined != 1 || st.FineReads != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The block path promoted the page.
	if s.v.PageCache().Len() == 0 {
		t.Fatal("declined read did not use the block path")
	}
}

func TestThresholdAdmission(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 2
	cfg.AdaptWindow = 1 << 60 // never adapt in this test
	s := newStack(t, cfg, 64, 1<<20)

	// First access: below threshold -> TempBuf, not cached.
	s.read(t, 0, 128)
	st := s.p.Stats()
	if st.TempBypasses != 1 || st.Admissions != 0 {
		t.Fatalf("after 1st: %+v", st)
	}
	// Second access: reference count reaches 2 -> admitted.
	s.read(t, 0, 128)
	st = s.p.Stats()
	if st.Admissions != 1 {
		t.Fatalf("after 2nd: %+v", st)
	}
	cs := s.p.CacheStats()
	if cs.Hits != 0 || cs.Accesses != 2 {
		t.Fatalf("cache stats %+v", cs)
	}
	// Third access: hit.
	before := s.now
	s.read(t, 0, 128)
	cs = s.p.CacheStats()
	if cs.Hits != 1 {
		t.Fatalf("3rd access no hit: %+v", cs)
	}
	if hitLat := s.now - before; hitLat > 10*sim.Microsecond {
		t.Fatalf("hit latency %v too slow", hitLat)
	}
}

func TestTrafficCountsOnlyDemandedBytes(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1 // admit immediately
	s := newStack(t, cfg, 64, 1<<20)
	s.read(t, 4096, 128) // miss: fetch 128 B
	s.read(t, 4096, 128) // hit: no traffic
	io := s.p.IO()
	if io.BytesTransferred != 128 {
		t.Fatalf("fine traffic = %d, want 128", io.BytesTransferred)
	}
	if s.v.IO().BytesTransferred != 0 {
		t.Fatal("fine path leaked block traffic")
	}
}

func TestContainmentHit(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	s.read(t, 1024, 512) // cache [1024,1536)
	got := s.read(t, 1100, 64)
	if !bytes.Equal(got, s.oracle(t, 1100, 64)) {
		t.Fatal("containment hit wrong data")
	}
	cs := s.p.CacheStats()
	if cs.Hits != 1 {
		t.Fatalf("inner read did not hit covering entry: %+v", cs)
	}
	if s.p.IO().BytesTransferred != 512 {
		t.Fatalf("traffic = %d, want 512", s.p.IO().BytesTransferred)
	}
}

func TestWriteInvalidation(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	s.read(t, 2048, 128) // cached
	s.read(t, 2048, 128) // hit
	if s.p.CacheStats().Hits != 1 {
		t.Fatal("setup: no hit")
	}
	// Overwrite part of the range.
	payload := []byte("NEWDATA!")
	if _, done, err := s.f.WriteAt(s.now, payload, 2100); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	if s.p.Stats().Invalidations != 1 {
		t.Fatalf("Invalidations = %d", s.p.Stats().Invalidations)
	}
	// Read now: the page cache holds the dirty page, so the VFS serves the
	// NEW data (consistency guarantee).
	got := s.read(t, 2100, 8)
	if !bytes.Equal(got, payload) {
		t.Fatalf("read after write = %q", got)
	}
	// Flush and drop the page cache: the fine path must now fetch fresh
	// data from flash (the stale cache item is gone).
	if done, err := s.f.Sync(s.now); err != nil {
		t.Fatal(err)
	} else {
		s.now = done
	}
	if err := s.v.PageCache().Resize(0); err != nil {
		t.Fatal(err)
	}
	if err := s.v.PageCache().Resize(64); err != nil {
		t.Fatal(err)
	}
	got = s.read(t, 2100, 8)
	if !bytes.Equal(got, payload) {
		t.Fatalf("post-flush fine read = %q, want %q (stale cache?)", got, payload)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.AdaptWindow = 1 << 60 // keep the threshold pinned at 1
	cfg.OverflowMaxBytes = 0  // no migration: only solution 1
	s := newStack(t, cfg, 64, 4<<20)
	// 64 KiB arena of 128 B-class items (one class used): pressure it with
	// 4x as many distinct ranges.
	ranges := (64 << 10) / 128 * 4
	for i := 0; i < ranges; i++ {
		s.read(t, int64(i)*128, 100)
	}
	st := s.p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under 4x pressure: %+v", st)
	}
	if st.Migrations != 0 {
		t.Fatalf("migration happened with OverflowMaxBytes=0: %+v", st)
	}
	// Data correctness survives churn.
	got := s.read(t, 640, 100)
	if !bytes.Equal(got, s.oracle(t, 640, 100)) {
		t.Fatal("post-churn read wrong")
	}
}

func TestMigrationShrinksPageCache(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.AdaptWindow = 1 << 60 // keep the threshold pinned at 1
	cfg.OverflowMaxBytes = 1 << 20
	cfg.PageCacheFloorPages = 2
	s := newStack(t, cfg, 64, 4<<20)

	// Never touch the page cache (fg ratio >= pc ratio = 0), and create
	// pressure in the 128 class while another class holds several slabs.
	for i := 0; i < 200; i++ {
		s.read(t, int64(i)*2048, 1024) // 1024-class fills slabs
	}
	for i := 0; i < 4000; i++ {
		s.read(t, int64(i)*128, 100) // 128-class pressure
	}
	st := s.p.Stats()
	if st.Migrations == 0 {
		t.Fatalf("no migrations: %+v", st)
	}
	if got := s.v.PageCache().Capacity(); got >= 64 {
		t.Fatalf("page cache capacity %d not shrunk by migration", got)
	}
	if s.p.MemoryBytes() == 0 {
		t.Fatal("memory accounting empty")
	}
}

func TestDisableCache(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	s.p.DisableCache()
	for i := 0; i < 10; i++ {
		got := s.read(t, 512, 128) // same range every time
		if !bytes.Equal(got, s.oracle(t, 512, 128)) {
			t.Fatal("no-cache read wrong")
		}
	}
	st := s.p.Stats()
	if st.Admissions != 0 || st.TempBypasses != 10 {
		t.Fatalf("no-cache stats %+v", st)
	}
	// Every read paid device traffic.
	if s.p.IO().BytesTransferred != 10*128 {
		t.Fatalf("traffic = %d", s.p.IO().BytesTransferred)
	}
}

func TestAdaptiveThresholdMoves(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.AdaptWindow = 32
	cfg.InitialThreshold = 2
	s := newStack(t, cfg, 64, 8<<20)

	// Phase 1: zero reuse — all-distinct ranges. Threshold must rise.
	for i := 0; i < 256; i++ {
		s.read(t, int64(i)*4096, 64)
	}
	if s.p.Threshold() <= 2 {
		t.Fatalf("threshold %d did not rise under zero reuse", s.p.Threshold())
	}
	if s.p.Stats().ThresholdUps == 0 {
		t.Fatal("no threshold-up events")
	}

	// Phase 2: heavy reuse — hammer a handful of ranges. Threshold falls.
	for i := 0; i < 512; i++ {
		s.read(t, int64(i%4)*4096, 64)
	}
	if s.p.Threshold() != cfg.MinThreshold {
		t.Fatalf("threshold %d did not fall to min under heavy reuse", s.p.Threshold())
	}
	if s.p.Stats().ThresholdDown == 0 {
		t.Fatal("no threshold-down events")
	}
}

func TestMaintenanceReassignment(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.MaintenanceEvery = 1 << 60 // drive ticks manually
	cfg.ReassignStages = 2
	s := newStack(t, cfg, 64, 4<<20)

	// Give the 1024 class several slabs, then go idle on it.
	for i := 0; i < 40; i++ {
		s.read(t, int64(i)*2048, 1024)
	}
	cls1024, _ := s.p.Allocator().ClassFor(1024)
	before := s.p.Allocator().SlabCount(cls1024)
	if before < 2 {
		t.Fatalf("setup: class owns %d slabs", before)
	}
	freeBefore := s.p.Allocator().FreeSlabs()
	// Two idle stages trigger reassignment of one slab.
	s.p.MaintenanceTick()
	s.p.MaintenanceTick()
	if s.p.Stats().Reassignments == 0 {
		t.Fatal("no reassignment after idle stages")
	}
	if got := s.p.Allocator().SlabCount(cls1024); got >= before {
		t.Fatalf("class slabs %d, want < %d", got, before)
	}
	if s.p.Allocator().FreeSlabs() <= freeBefore {
		t.Fatal("reassigned slab did not reach the free pool")
	}
	// Data in the reassigned slab still readable (overflow serves it).
	got := s.read(t, 0, 1024)
	if !bytes.Equal(got, s.oracle(t, 0, 1024)) {
		t.Fatal("post-reassignment read wrong")
	}
}

func TestRepromotionFromOverflow(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	cfg.MaintenanceEvery = 1 << 60
	cfg.ReassignStages = 1
	s := newStack(t, cfg, 64, 4<<20)
	for i := 0; i < 40; i++ {
		s.read(t, int64(i)*2048, 1024)
	}
	s.p.MaintenanceTick() // forces a reassignment -> overflow entries
	if s.p.Stats().Reassignments == 0 {
		t.Skip("no reassignment; nothing in overflow")
	}
	repBefore := s.p.Stats().Repromotions
	// Touch everything; overflow hits repromote when arena space allows.
	for i := 0; i < 40; i++ {
		s.read(t, int64(i)*2048, 1024)
	}
	if s.p.Stats().Repromotions == repBefore {
		t.Fatal("no repromotions on overflow hits")
	}
}

func TestFineReadsSkipPageCachePollution(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	for i := 0; i < 50; i++ {
		s.read(t, int64(i)*4096, 128)
	}
	if n := s.v.PageCache().Len(); n != 0 {
		t.Fatalf("fine reads promoted %d pages into the page cache", n)
	}
}

func TestMemoryAccounting(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.InitialThreshold = 1
	s := newStack(t, cfg, 64, 1<<20)
	if s.p.MemoryBytes() != 0 {
		t.Fatal("fresh framework reports memory")
	}
	s.read(t, 0, 128)
	if s.p.MemoryBytes() == 0 {
		t.Fatal("admission not reflected in memory")
	}
}
