package baseline

import (
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
