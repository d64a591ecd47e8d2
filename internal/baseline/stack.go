package baseline

import (
	"fmt"
	"strings"

	"pipette/internal/blockdev"
	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

const (
	// QueueDepth is the NVMe queue depth of each SQ/CQ pair.
	QueueDepth = 256
	// FileName names the engines' dataset file.
	FileName = "workload.dat"

	// TwoBSSD costs: the per-access critical-path setup the paper charges
	// 2B-SSD with (§2.2): a page fault before MMIO access, or a DMA
	// mapping before a DMA transfer.
	PageFault = 3 * sim.Microsecond
	DMAMap    = 23 * sim.Microsecond
)

// StackConfig assembles one private system.
type StackConfig struct {
	SSD        ssd.Config
	VFS        vfs.Config
	Block      blockdev.Config
	Core       core.Config
	NVMe       nvme.Costs
	QueuePairs int // NVMe SQ/CQ pairs (0 = default 4)
	FileSize   int64

	// FaultProfile configures deterministic fault injection across the
	// stack; the empty profile is the zero-cost default. FaultSeed drives
	// the per-site decision streams.
	FaultProfile fault.Profile
	FaultSeed    uint64
}

// cacheShare is the share of its live bytes that a stack sized for a
// dataset gives each cache: 1/cacheShare to the page cache, as much again
// to the fine cache's arena.
const cacheShare = 8

// SetCaches sizes §3.2.4's shared memory budget, for every stack: the page
// cache's pages and the arena's bytes go in. Items migrated out of the arena
// may hold as many bytes as the arena, and migration may shrink the page
// cache to 1/8 of its budget, no further.
func (c *StackConfig) SetCaches(pages, arenaBytes int) {
	c.VFS.PageCachePages = pages
	c.Core.PageCacheFloorPages = pages / 8
	c.Core.HMB.DataBytes = arenaBytes
	c.Core.OverflowMaxBytes = arenaBytes
}

// CachesFor gives SetCaches the budgets for liveBytes of data: 1/cacheShare
// each, at least 64 pages, and an arena no smaller than the page cache, so
// small datasets still compare equal memory budgets.
func CachesFor(liveBytes int64) (pages, arenaBytes int) {
	pages = max(int(liveBytes/cacheShare/4096), 64)
	return pages, max(int(liveBytes/cacheShare), pages*4096)
}

// DefaultStackConfig sizes a stack for a dataset of fileSize bytes: the
// flash is provisioned ~1.5x the file and the defaults mirror the paper's
// platform.
func DefaultStackConfig(fileSize int64) StackConfig {
	scfg := ssd.DefaultConfig()
	// Provision just enough blocks for the file plus GC/write headroom —
	// the channel/way geometry (the paper's 8x8) stays fixed so
	// parallelism behaviour is scale-independent, while capacity tracks
	// the dataset to keep mapping-table memory proportional.
	pageBytes := int64(scfg.NAND.PageSize)
	needPages := fileSize/pageBytes + fileSize/(2*pageBytes) + 4096
	perDie := needPages/int64(scfg.NAND.Dies())/int64(scfg.NAND.PagesPerBlock) + 1
	perPlane := int(perDie)/scfg.NAND.PlanesPerDie + 1
	// The FTL needs GC reserve plus frontier per die.
	if min := ftl.DefaultConfig().GCFreeBlockLow + 3; perPlane < min {
		perPlane = min
	}
	scfg.NAND.BlocksPerPlane = perPlane
	return StackConfig{
		SSD:        scfg,
		VFS:        vfs.DefaultConfig(),
		Block:      blockdev.DefaultConfig(),
		Core:       core.DefaultConfig(),
		NVMe:       nvme.DefaultCosts(),
		QueuePairs: 4,
		FileSize:   fileSize,
	}
}

// CapacityStackConfig sizes a stack by its flash capacity rather than by a
// dataset: the default geometry with enough blocks per plane (at least 6)
// to hold capacityBytes, and one NVMe queue pair. The public facade and
// pipette-kv build their stacks from it.
func CapacityStackConfig(capacityBytes int64) StackConfig {
	cfg := DefaultStackConfig(0)
	nand := &cfg.SSD.NAND
	needPages := capacityBytes / int64(nand.PageSize)
	perPlane := int(needPages/int64(nand.Dies()*nand.PagesPerBlock*nand.PlanesPerDie)) + 1
	nand.BlocksPerPlane = max(perPlane, 6)
	cfg.QueuePairs = 1
	return cfg
}

// Stack is one assembled host + SSD system: controller, NVMe driver, block
// layer, filesystem and VFS, plus the fine-grained read core when the stack
// was built with the fine path. Every comparison in the repo — the
// engines, the KV matrix, the cluster shards and the public facade — runs
// over a Stack, so they differ only in the part under test.
type Stack struct {
	Ctrl *ssd.Controller
	Drv  *nvme.Driver
	Blk  *blockdev.Layer
	V    *vfs.VFS
	Core *core.Pipette   // nil without the fine path
	Inj  *fault.Injector // nil until armed with a non-empty profile
	SA   *telemetry.StageAccount
	Res  *resource.Tracker
}

// NewStack assembles ssd → nvme (cfg.QueuePairs × QueueDepth) → blockdev →
// extfs → vfs, plus the fine-grained read core when fine is set. The stage
// account and resource tracker thread through every layer, and
// cfg.FaultProfile arms the injector. cfg.FileSize is the engines'
// business: the stack holds no files.
func NewStack(cfg StackConfig, fine bool) (*Stack, error) {
	ctrl, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, err
	}
	pairs := cfg.QueuePairs
	if pairs <= 0 {
		pairs = 4
	}
	drv := nvme.NewDriverQueues(ctrl, pairs, QueueDepth, cfg.NVMe)
	blk, err := blockdev.New(drv, ctrl.PageSize(), cfg.Block)
	if err != nil {
		return nil, err
	}
	blk.SetWriteCache(cfg.SSD.WriteBufferPages > 0)
	v, err := vfs.New(extfs.New(ctrl), blk, cfg.VFS)
	if err != nil {
		return nil, err
	}
	s := &Stack{Ctrl: ctrl, Drv: drv, Blk: blk, V: v,
		SA: telemetry.NewStageAccount(), Res: resource.NewTracker()}
	if fine {
		if s.Core, err = core.New(v, drv, cfg.Core); err != nil {
			return nil, err
		}
		s.Core.SetStages(s.SA)
	}
	// Registration order (dma, nand, ring) is the export row order.
	v.SetStages(s.SA)
	blk.SetStages(s.SA)
	drv.SetStages(s.SA)
	ctrl.SetStages(s.SA)
	ctrl.SetResources(s.Res)
	drv.SetRingTimeline(s.Res.Register("nvme.ring"))
	s.Arm(cfg.FaultProfile.NewInjector(cfg.FaultSeed))
	return s, nil
}

// Arm wires inj into the controller, the VFS and the fine-read core, so
// device-side corruption and host-side validation agree on when to run. A
// nil injector (the empty profile) leaves the stack fault-free.
func (s *Stack) Arm(inj *fault.Injector) {
	if inj == nil {
		return
	}
	s.Inj = inj
	s.Ctrl.SetInjector(inj)
	s.V.SetInjector(inj)
	if s.Core != nil {
		s.Core.SetInjector(inj)
	}
}

// SetTracer instruments every layer: VFS, block layer, NVMe driver, SSD
// controller (cascading to FTL and NAND) and the fine-read core. nil
// returns to the no-op default.
func (s *Stack) SetTracer(tr telemetry.Tracer) {
	tr = telemetry.OrNop(tr)
	s.V.SetTracer(tr)
	s.Blk.SetTracer(tr)
	s.Drv.SetTracer(tr)
	s.Ctrl.SetTracer(tr)
	if s.Core != nil {
		s.Core.SetTracer(tr)
	}
}

// Snapshot merges the VFS and fine-path traffic and cache statistics under
// name; ops, latency and elapsed time are the caller's to fill.
func (s *Stack) Snapshot(name string) metrics.Snapshot {
	pc := s.V.PageCache()
	hits, accesses, ins, evs := pc.Stats()
	snap := metrics.Snapshot{Name: name, IO: s.V.IO(),
		PageCache: metrics.Cache{Hits: hits, Accesses: accesses, Insertions: ins, Evictions: evs},
		MemoryMB:  float64(pc.MemoryBytes()) / (1 << 20)}
	if p := s.Core; p != nil {
		fio := p.IO()
		snap.IO.BytesTransferred += fio.BytesTransferred
		snap.IO.FineReads = fio.FineReads
		snap.FineCache = p.CacheStats()
		snap.MemoryMB += float64(p.MemoryBytes()) / (1 << 20)
	}
	return snap
}

// Report is a stack's activity summary: traffic, cache and fine-path
// counters, the fault ledger when armed, and the stage and resource
// accounts. The public facade's System.Report and pipette-sim print it.
type Report struct {
	Elapsed sim.Time

	IO        metrics.IO
	PageCache metrics.Cache
	FineCache metrics.Cache

	FineCacheMemoryBytes uint64
	PageCacheMemoryBytes uint64
	Threshold            uint32
	Core                 core.Stats

	// Faults is nil when no fault profile is armed, so the rendered
	// report is unchanged for fault-free stacks.
	Faults *fault.Report

	Stages    telemetry.StageSnapshot
	Resources *resource.Snapshot
}

// Report gathers the stack's summary at virtual time now, the elapsed
// time of a replay that started at zero.
func (s *Stack) Report(now sim.Time) Report {
	snap := s.Snapshot("")
	r := Report{
		Elapsed:              now,
		IO:                   snap.IO,
		PageCache:            snap.PageCache,
		FineCache:            snap.FineCache,
		PageCacheMemoryBytes: s.V.PageCache().MemoryBytes(),
		Stages:               s.SA.Snapshot(),
		Resources:            s.Res.Snapshot(now),
	}
	if s.Core != nil {
		r.FineCacheMemoryBytes = s.Core.MemoryBytes()
		r.Threshold = s.Core.Threshold()
		r.Core = s.Core.Stats()
	}
	if s.Inj != nil {
		f := s.Faults()
		r.Faults = &f
	}
	return r
}

// String renders the report for humans.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time      %v\n", r.Elapsed)
	fmt.Fprintf(&b, "requested         %.2f MB\n", float64(r.IO.BytesRequested)/(1<<20))
	fmt.Fprintf(&b, "read traffic      %.2f MB (amplification %.2fx)\n",
		r.IO.TrafficMB(), r.IO.ReadAmplification())
	fmt.Fprintf(&b, "write traffic     %.2f MB\n", float64(r.IO.BytesWritten)/(1<<20))
	fmt.Fprintf(&b, "page cache        %.1f%% hit (%d/%d), %.1f MB resident\n",
		r.PageCache.HitRatio()*100, r.PageCache.Hits, r.PageCache.Accesses,
		float64(r.PageCacheMemoryBytes)/(1<<20))
	fmt.Fprintf(&b, "fine cache        %.1f%% hit (%d/%d), %.1f MB resident, threshold %d\n",
		r.FineCache.HitRatio()*100, r.FineCache.Hits, r.FineCache.Accesses,
		float64(r.FineCacheMemoryBytes)/(1<<20), r.Threshold)
	fmt.Fprintf(&b, "fine path         %d reads, %d admissions, %d bypasses, %d evictions, %d migrations, %d reassignments, %d repromotions, %d invalidations",
		r.Core.FineReads, r.Core.Admissions, r.Core.TempBypasses,
		r.Core.Evictions, r.Core.Migrations, r.Core.Reassignments,
		r.Core.Repromotions, r.Core.Invalidations)
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "\nfaults            %d injected: %d ECC retries, %d uncorrectable, %d ring + %d DMA fallbacks, %d program + %d writeback retries",
			f.Injected, f.ECCRetries, f.Uncorrectable,
			f.RingFallbacks, f.DMAFallbacks, f.ProgramRetries, f.WritebackRetries)
	}
	if r.Stages.Requests > 0 {
		fmt.Fprintf(&b, "\n\nstage waterfall\n%s", r.Stages.Waterfall().Render())
	}
	if r.Resources != nil && len(r.Resources.Resources) > 0 {
		fmt.Fprintf(&b, "\nresource utilization\n%s", r.Resources.Table(false).Render())
	}
	return b.String()
}

// Faults aggregates the injection and recovery counters of every layer
// (all zeros while unarmed).
func (s *Stack) Faults() fault.Report {
	f := s.Ctrl.Faults()
	r := fault.Report{
		Injected:         s.Inj.TotalInjected(),
		ECCRetries:       f.ECCRetries,
		Uncorrectable:    f.Uncorrectable,
		RingCorruptions:  f.RingCorruptions,
		DMACorruptions:   f.DMACorruptions,
		ProgramRetries:   f.ProgramRetries,
		WritebackRetries: s.V.WritebackRetries(),
	}
	if s.Core != nil {
		r.RingFallbacks = s.Core.RingFallbacks()
		r.DMAFallbacks = s.Core.DMAFallbacks()
	}
	return r
}

// Read returns row r's current value on the stack. FromStore rows read the
// KV stores, which a stack does not own, so they read zero here.
func (s *Stack) Read(r *Series) float64 {
	var l Ledger
	switch r.Source {
	case FromSnapshot:
		l.Snap = s.Snapshot("")
	case FromFaults:
		l.Faults = s.Faults()
	case FromStack:
		l.Stack = s
	}
	return r.Get(&l)
}

// Probes builds the stack's sampled time series: one column per row of
// Schema that exists on the stack, in table order, then per-channel NAND
// bus utilization.
func (s *Stack) Probes() []telemetry.Probe {
	var probes []telemetry.Probe
	for i := range Schema {
		if r := &Schema[i]; r.Column != "" && r.On(s) {
			probes = append(probes, telemetry.Probe{Name: r.Column, Sample: func(sim.Time) float64 { return s.Read(r) }})
		}
	}
	// One busy-rate series per channel bus, read off its "nand.chN"
	// timeline (the dies' "nand.chN.wM" timelines are skipped).
	for i := 0; i < s.Res.Len(); i++ {
		tl := s.Res.At(i)
		if ch, ok := strings.CutPrefix(tl.Name(), "nand.ch"); ok && !strings.Contains(ch, ".") {
			probes = append(probes, telemetry.RateProbe("ch"+ch+"_busy", tl.Busy))
		}
	}
	return probes
}
