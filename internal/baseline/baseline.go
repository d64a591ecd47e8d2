// Package baseline implements the five engines the paper's evaluation
// compares (§4.1): conventional block I/O, 2B-SSD in its MMIO and DMA read
// modes, Pipette without its fine-grained read cache, and full Pipette.
// Each engine owns a complete simulated system (NAND, FTL, controller,
// driver, block layer, filesystem, VFS) so runs are independent; all five
// expose the same Engine interface to the benchmark harness.
package baseline

import (
	"errors"
	"fmt"

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

// Engine is one system under test.
type Engine interface {
	Name() string
	// ReadAt serves one read; WriteAt one write. Both return the virtual
	// completion time.
	ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error)
	WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error)
	// Sync flushes the file's dirty pages to the device (fsync) and
	// returns the virtual completion time.
	Sync(now sim.Time) (sim.Time, error)
	// Snapshot reports traffic and cache statistics accumulated so far
	// (ops/latency/elapsed are filled by the runner).
	Snapshot() metrics.Snapshot
	// Oracle fills buf with the authoritative current content at off —
	// cache-consistent for engines with caches — used by the harness to
	// verify correctness without timing.
	Oracle(buf []byte, off int64) error
	// SetTracer instruments every layer of the engine's private stack.
	SetTracer(tr telemetry.Tracer)
	// Probes returns the engine's sampled time series (hit ratios, read
	// amplification, per-channel utilization, ...).
	Probes() []telemetry.Probe
	// Faults aggregates the stack's fault-injection and recovery counters
	// (all zeros when the fault profile is empty).
	Faults() fault.Report
	// Stages exposes the engine's per-request stage account — the raw
	// material of the waterfall breakdown.
	Stages() *telemetry.StageAccount
	// Resources exposes the engine's resource-occupancy tracker (NAND
	// channels/dies, PCIe DMA link, NVMe ring).
	Resources() *resource.Tracker
}

// StackConfig assembles one engine's private system.
type StackConfig struct {
	SSD        ssd.Config
	VFS        vfs.Config
	Block      blockdev.Config
	Core       core.Config
	NVMe       nvme.Costs
	Depth      int // per-pair queue depth
	QueuePairs int // NVMe SQ/CQ pairs (0 = default 4)
	FileName   string
	FileSize   int64

	// TwoBSSD costs: the per-access critical-path setup the paper charges
	// 2B-SSD with (§2.2): a page fault before MMIO access, or a DMA
	// mapping before a DMA transfer.
	PageFault sim.Time
	DMAMap    sim.Time

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
		Depth:      256,
		QueuePairs: 4,
		FileName:   "workload.dat",
		FileSize:   fileSize,
		PageFault:  3 * sim.Microsecond,
		DMAMap:     23 * sim.Microsecond,
	}
}

// stack is the assembled private system.
type stack struct {
	ctrl *ssd.Controller
	drv  *nvme.Driver
	blk  *blockdev.Layer
	v    *vfs.VFS
	file *vfs.File
	inj  *fault.Injector // nil with an empty profile
	sa   *telemetry.StageAccount
	res  *resource.Tracker
}

func newStack(cfg StackConfig, flags vfs.OpenFlag) (*stack, error) {
	if cfg.FileSize <= 0 {
		return nil, errors.New("baseline: FileSize must be positive")
	}
	ctrl, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, err
	}
	if uint64(cfg.FileSize/int64(ctrl.PageSize())+1) > ctrl.LogicalPages() {
		return nil, fmt.Errorf("baseline: file %d B exceeds device capacity %d pages",
			cfg.FileSize, ctrl.LogicalPages())
	}
	pairs := cfg.QueuePairs
	if pairs <= 0 {
		pairs = 4
	}
	drv := nvme.NewDriverQueues(ctrl, pairs, cfg.Depth, cfg.NVMe)
	blk, err := blockdev.New(drv, ctrl.PageSize(), cfg.Block)
	if err != nil {
		return nil, err
	}
	fs := extfs.New(ctrl)
	v, err := vfs.New(fs, blk, cfg.VFS)
	if err != nil {
		return nil, err
	}
	file, err := v.Create(cfg.FileName, cfg.FileSize, extfs.CreateOpts{Preload: true}, flags)
	if err != nil {
		return nil, err
	}
	s := &stack{ctrl: ctrl, drv: drv, blk: blk, v: v, file: file,
		sa: telemetry.NewStageAccount(), res: resource.NewTracker()}
	// Stage attribution and resource occupancy thread through every layer;
	// registration order (dma, nand, ring) is the export row order.
	v.SetStages(s.sa)
	blk.SetStages(s.sa)
	drv.SetStages(s.sa)
	ctrl.SetStages(s.sa)
	ctrl.SetResources(s.res)
	drv.SetRingTimeline(s.res.Register("nvme.ring"))
	if inj := cfg.FaultProfile.NewInjector(cfg.FaultSeed); inj != nil {
		s.inj = inj
		ctrl.SetInjector(inj)
		v.SetInjector(inj)
	}
	return s, nil
}

// faults aggregates the stack-level recovery counters; engines with a fine
// path add their fallback counts on top.
func (s *stack) faults() fault.Report {
	f := s.ctrl.Faults()
	return fault.Report{
		Injected:         s.inj.TotalInjected(),
		ECCRetries:       f.ECCRetries,
		Uncorrectable:    f.Uncorrectable,
		RingCorruptions:  f.RingCorruptions,
		DMACorruptions:   f.DMACorruptions,
		ProgramRetries:   f.ProgramRetries,
		WritebackRetries: s.v.WritebackRetries(),
	}
}

// setTracer instruments every layer of the stack.
func (s *stack) setTracer(tr telemetry.Tracer) {
	tr = telemetry.OrNop(tr)
	s.v.SetTracer(tr)
	s.blk.SetTracer(tr)
	s.drv.SetTracer(tr)
	s.ctrl.SetTracer(tr)
}

// stackProbes builds the time series every engine shares: read
// amplification, page-cache hit ratio, and per-channel NAND bus
// utilization. p, when non-nil, extends them with the fine-path series
// (fine hit ratio, adaptive threshold, resident memory, overflow FIFO,
// HMB info-ring occupancy).
func stackProbes(s *stack, p *core.Pipette) []telemetry.Probe {
	probes := []telemetry.Probe{
		telemetry.GaugeProbe("read_amp", func() float64 {
			io := s.v.IO()
			if p != nil {
				fio := p.IO()
				io.BytesTransferred += fio.BytesTransferred
			}
			return io.ReadAmplification()
		}),
		telemetry.GaugeProbe("pc_hit_ratio", func() float64 {
			hits, accesses, _, _ := s.v.PageCache().Stats()
			c := metrics.Cache{Hits: hits, Accesses: accesses}
			return c.HitRatio()
		}),
	}
	if p != nil {
		probes = append(probes,
			telemetry.GaugeProbe("fine_hit_ratio", func() float64 {
				c := p.CacheStats()
				return c.HitRatio()
			}),
			telemetry.GaugeProbe("threshold", func() float64 {
				return float64(p.Threshold())
			}),
			telemetry.GaugeProbe("fine_mem_bytes", func() float64 {
				return float64(p.MemoryBytes())
			}),
			telemetry.GaugeProbe("overflow_bytes", func() float64 {
				return float64(p.OverflowBytes())
			}),
			telemetry.GaugeProbe("hmb_info_pending", func() float64 {
				return float64(p.Region().Info().Pending())
			}),
		)
	}
	if s.inj != nil {
		probes = append(probes,
			telemetry.GaugeProbe("fault.injected", func() float64 {
				return float64(s.inj.TotalInjected())
			}),
			telemetry.GaugeProbe("fault.ecc_retries", func() float64 {
				return float64(s.ctrl.Faults().ECCRetries)
			}),
			telemetry.GaugeProbe("fault.uncorrectable", func() float64 {
				return float64(s.ctrl.Faults().Uncorrectable)
			}),
			telemetry.GaugeProbe("fault.wb_retries", func() float64 {
				return float64(s.v.WritebackRetries())
			}),
		)
		if p != nil {
			probes = append(probes,
				telemetry.GaugeProbe("fault.fallbacks", func() float64 {
					return float64(p.RingFallbacks() + p.DMAFallbacks())
				}),
			)
		}
	}
	arr := s.ctrl.Array()
	for ch := 0; ch < arr.Config().Channels; ch++ {
		ch := ch
		probes = append(probes, telemetry.RateProbe(
			fmt.Sprintf("ch%d_busy", ch),
			func() sim.Time { return arr.ChannelBusy(ch) }))
	}
	return probes
}

// oracle reads the engine-consistent view: dirty page-cache content first,
// then device content.
func (s *stack) oracle(buf []byte, off int64) error {
	// ReadAt through the VFS would disturb statistics; replicate the
	// consistency rule with zero cost: dirty pages win, else flash.
	// Harness verification happens on read-only workloads or after Sync,
	// so flash content is authoritative; Peek avoids disturbing cache
	// statistics.
	return s.v.FS().Peek(s.file.Inode(), off, buf)
}

// BlockIO is the conventional read path: page cache + read-ahead + block
// layer, no byte-granular anything.
type BlockIO struct {
	s *stack
}

// NewBlockIO builds the block I/O engine.
func NewBlockIO(cfg StackConfig) (*BlockIO, error) {
	s, err := newStack(cfg, vfs.ReadWrite)
	if err != nil {
		return nil, err
	}
	return &BlockIO{s: s}, nil
}

// Name implements Engine.
func (e *BlockIO) Name() string { return "Block I/O" }

// ReadAt implements Engine.
func (e *BlockIO) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	return e.s.file.ReadFull(now, buf, off)
}

// WriteAt implements Engine.
func (e *BlockIO) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	_, done, err := e.s.file.WriteAt(now, data, off)
	return done, err
}

// Snapshot implements Engine.
func (e *BlockIO) Snapshot() metrics.Snapshot {
	return snapshotOf(e.Name(), e.s, nil)
}

// Oracle implements Engine.
func (e *BlockIO) Oracle(buf []byte, off int64) error { return e.s.oracle(buf, off) }

// SetTracer implements Engine.
func (e *BlockIO) SetTracer(tr telemetry.Tracer) { e.s.setTracer(tr) }

// Probes implements Engine.
func (e *BlockIO) Probes() []telemetry.Probe { return stackProbes(e.s, nil) }

// Faults implements Engine.
func (e *BlockIO) Faults() fault.Report { return e.s.faults() }

// Stages implements Engine.
func (e *BlockIO) Stages() *telemetry.StageAccount { return e.s.sa }

// Resources implements Engine.
func (e *BlockIO) Resources() *resource.Tracker { return e.s.res }

// Sync implements Engine.
func (e *BlockIO) Sync(now sim.Time) (sim.Time, error) { return e.s.file.Sync(now) }

// snapshotOf merges VFS and (optionally) Pipette statistics.
func snapshotOf(name string, s *stack, p *core.Pipette) metrics.Snapshot {
	snap := metrics.Snapshot{Name: name}
	io := s.v.IO()
	snap.IO = io
	hits, accesses, ins, evs := s.v.PageCache().Stats()
	snap.PageCache = metrics.Cache{Hits: hits, Accesses: accesses, Insertions: ins, Evictions: evs}
	snap.MemoryMB = float64(s.v.PageCache().MemoryBytes()) / (1 << 20)
	if p != nil {
		fio := p.IO()
		snap.IO.BytesTransferred += fio.BytesTransferred
		snap.IO.FineReads = fio.FineReads
		snap.FineCache = p.CacheStats()
		snap.MemoryMB += float64(p.MemoryBytes()) / (1 << 20)
	}
	return snap
}
