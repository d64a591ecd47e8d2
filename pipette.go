// Package pipette is the public facade of the Pipette reproduction: a
// complete simulated storage system — NAND flash, FTL, NVMe controller with
// the fine-grained read engine, block layer, extent filesystem, page cache —
// with the Pipette fine-grained read framework (DAC'22) installed on top.
//
// A System owns its virtual clock: callers use ordinary ReadAt/WriteAt and
// the system advances simulated time internally, so application code looks
// like normal file I/O:
//
//	sys, _ := pipette.New(pipette.Options{CapacityBytes: 1 << 30})
//	_ = sys.CreateFile("embeddings", 256<<20, true)
//	f, _ := sys.Open("embeddings", pipette.FineGrained)
//	buf := make([]byte, 128)
//	f.ReadAt(buf, 4096)             // byte-granular SSD read
//	fmt.Println(sys.Report())       // traffic, hit ratios, virtual time
//
// The deeper layers live in internal/ packages; experiments and ablations
// are driven by cmd/pipette-bench.
package pipette

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipette/internal/baseline"
	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/fault"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

// OpenFlag mirrors the VFS open flags.
type OpenFlag = vfs.OpenFlag

// Open flags: FineGrained is the paper's O_FINE_GRAINED.
const (
	ReadOnly    = vfs.ReadOnly
	ReadWrite   = vfs.ReadWrite
	FineGrained = vfs.FineGrained
)

// ErrUncorrectable reports a read that exhausted the device's ECC
// read-retry ladder: the data is lost, not silently wrong. Only surfaces
// under an armed fault profile; classify with errors.Is.
var ErrUncorrectable = nvme.ErrUncorrectable

// Options configures a System. Zero values take defaults.
type Options struct {
	// CapacityBytes provisions the flash array (default 1 GiB).
	CapacityBytes int64
	// PageCacheBytes is the host page cache's hard budget (default
	// 256 MiB): migration may shrink the cache to 1/8 of it, never grow it.
	PageCacheBytes int64
	// FineCacheBytes budgets the fine-grained read cache's Data Area
	// (default 60 MiB, the paper's HMB mapping region scale), and as much
	// again for the items migrated out of it.
	FineCacheBytes int
	// DisableFineCache runs the byte-granular path without the cache
	// (the paper's "Pipette w/o cache" configuration).
	DisableFineCache bool
	// Core overrides the framework tuning; leave zero for defaults. The
	// two budgets above set its floor and overflow bound.
	Core *core.Config
	// FaultProfile arms deterministic fault injection, in the syntax of
	// fault.ParseProfile ("nand.read:rber*20,hmb.ring:0.01"). Empty (the
	// default) injects nothing and adds zero overhead.
	FaultProfile string
	// FaultSeed seeds the injector's per-site decision streams (default
	// 0x5eed). Same profile + same seed + same workload = same faults.
	FaultSeed uint64
}

// System is one simulated host + SSD with Pipette installed.
// All methods are safe for concurrent use.
type System struct {
	mu    sync.Mutex
	clock sim.Clock

	st  *baseline.Stack // Inj is nil unless Options.FaultProfile armed one
	kvs []*kv.Store     // stores compacted by MaintenanceTick
}

// New assembles a system.
func New(opts Options) (*System, error) {
	if opts.CapacityBytes == 0 {
		opts.CapacityBytes = 1 << 30
	}
	if opts.PageCacheBytes == 0 {
		opts.PageCacheBytes = 256 << 20
	}
	if opts.CapacityBytes < 0 || opts.PageCacheBytes < 0 || opts.FineCacheBytes < 0 {
		return nil, errors.New("pipette: negative budgets")
	}

	cfg := baseline.CapacityStackConfig(opts.CapacityBytes)
	if opts.Core != nil {
		cfg.Core = *opts.Core
	}
	arena := cfg.Core.HMB.DataBytes
	if opts.FineCacheBytes != 0 {
		arena = opts.FineCacheBytes
	}
	cfg.SetCaches(int(opts.PageCacheBytes/int64(cfg.SSD.NAND.PageSize)), arena)
	if opts.FaultProfile != "" {
		prof, err := fault.ParseProfile(opts.FaultProfile)
		if err != nil {
			return nil, fmt.Errorf("pipette: %w", err)
		}
		cfg.FaultProfile, cfg.FaultSeed = prof, opts.FaultSeed
		if cfg.FaultSeed == 0 {
			cfg.FaultSeed = 0x5eed
		}
	}
	st, err := baseline.NewStack(cfg, true)
	if err != nil {
		return nil, err
	}
	if opts.DisableFineCache {
		st.Core.DisableCache()
	}
	return &System{st: st}, nil
}

// SetTracer installs a tracer on every layer of the system: VFS, block
// layer, NVMe driver, SSD controller (cascading to FTL and NAND), and the
// fine-grained read framework. Pass nil to return to the no-op default.
func (s *System) SetTracer(tr telemetry.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.SetTracer(tr)
}

// Probes returns the sampled time series of the system: the columns of
// baseline.Schema (the fault counters only when a profile is armed), then
// per-channel NAND bus utilization. Feed them to a telemetry.Sampler; each
// sample runs under the system lock.
func (s *System) Probes() []telemetry.Probe {
	probes := s.st.Probes()
	for i := range probes {
		probes[i].Sample = s.locked(probes[i].Sample)
	}
	return probes
}

// RegisterMetrics exposes the system's live series on a
// telemetry.Registry as scrape-time collectors: every family row of
// baseline.Schema (the fault rows only when a profile is armed), whose
// counter families pipette-bench's harness publishes too, so one dashboard
// serves both. The collectors are stateless reads of the layers'
// accumulators, each taking the System lock for the duration of one getter:
// a scraper may briefly delay application threads but can never advance
// virtual time or change any simulated outcome.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	for i := range baseline.Schema {
		r := &baseline.Schema[i]
		if r.Name == "" || !r.On(s.st) {
			continue
		}
		// Row getters read no clock; only the sampler's rate probes do.
		get := s.locked(func(sim.Time) float64 { return s.read(r) })
		if r.Gauge {
			reg.GaugeFunc(r.Name, r.Help, func() float64 { return get(0) }, r.Labels()...)
		} else {
			reg.CounterFunc(r.Name, r.Help, func() uint64 { return uint64(get(0)) }, r.Labels()...)
		}
	}
	reg.GaugeFunc("pipette_virtual_seconds", "elapsed simulated time",
		func() float64 { return s.Now().Seconds() })

	// Per-request stage attribution (atomic mirrors, scraped lock-free) and
	// per-resource occupancy (scrape-time reads under the system lock).
	s.st.SA.BindRegistry(reg)
	s.st.Res.RegisterMetrics(reg, &s.mu, s.clock.Now)
}

// locked wraps sample in the system lock: every sampler probe and every
// /metrics collector of the system reads through it.
func (s *System) locked(sample func(now sim.Time) float64) func(now sim.Time) float64 {
	return func(now sim.Time) float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return sample(now)
	}
}

// read returns row r's value over the system's current state, summing
// store rows across every open KV store. Callers hold s.mu.
func (s *System) read(r *baseline.Series) float64 {
	if r.Source != baseline.FromStore {
		return s.st.Read(r)
	}
	var n float64
	for _, st := range s.kvs {
		n += r.Get(&baseline.Ledger{KV: st.Stats(), Index: st.IndexStats()})
	}
	return n
}

// Stages exposes the per-request stage account. Readers must not race
// in-flight I/O: snapshot between requests or under an idle system.
func (s *System) Stages() *telemetry.StageAccount {
	return s.st.SA
}

// Resources exposes the resource-occupancy tracker, same caveat as Stages.
func (s *System) Resources() *resource.Tracker {
	return s.st.Res
}

// CreateFile makes a fixed-size file. preload fills it with deterministic
// device content at zero virtual cost (dataset setup).
func (s *System) CreateFile(name string, size int64, preload bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.st.V.FS().Create(name, size, extfs.CreateOpts{Preload: preload})
	return err
}

// RemoveFile deletes a file: cached pages are discarded, pending writeback
// cancelled, and its blocks trimmed and returned to the allocator.
func (s *System) RemoveFile(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.V.Remove(name)
}

// Files lists file names.
func (s *System) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.V.FS().Files()
}

// File is an open handle. ReadAt/WriteAt implement io.ReaderAt/io.WriterAt
// over virtual time.
type File struct {
	sys *System
	f   *vfs.File
}

// Open opens an existing file. Pass FineGrained to permit the byte-granular
// read path for this descriptor.
func (s *System) Open(name string, flags OpenFlag) (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.st.V.Open(name, flags)
	if err != nil {
		return nil, err
	}
	return &File{sys: s, f: f}, nil
}

// Size reports the file size.
func (f *File) Size() int64 { return f.f.Size() }

// Name reports the file name.
func (f *File) Name() string { return f.f.Inode().Name }

// ReadAt reads len(p) bytes at off, advancing the system's virtual clock by
// the simulated service time.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	s := f.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	n, done, err := f.f.ReadAt(s.clock.Now(), p, off)
	s.clock.AdvanceTo(done)
	return n, err
}

// WriteAt writes len(p) bytes at off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	s := f.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	n, done, err := f.f.WriteAt(s.clock.Now(), p, off)
	s.clock.AdvanceTo(done)
	return n, err
}

// Sync flushes the file's dirty pages (fsync).
func (f *File) Sync() error {
	s := f.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := f.f.Sync(s.clock.Now())
	s.clock.AdvanceTo(done)
	return err
}

// Close releases the handle: further I/O through it fails, and the last
// close of a file drops its per-file readahead state. Dirty pages stay in
// the page cache (close does not imply fsync — call Sync first for that).
func (f *File) Close() error {
	s := f.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.f.Close()
}

// Now reports elapsed virtual time.
func (s *System) Now() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock.Now()
}

// MaintenanceTick runs one stage of the fine cache's maintenance thread
// (§3.2.3) and one compaction round of every open KV store. StartMaintenance
// runs it periodically in wall-clock time.
func (s *System) MaintenanceTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Core.MaintenanceTick()
	s.tickKVs()
}

// StartMaintenance launches the maintenance goroutine; the returned stop
// function terminates it.
func (s *System) StartMaintenance(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.MaintenanceTick()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Report summarizes system activity.
type Report struct {
	Elapsed sim.Time

	IO        metrics.IO
	PageCache metrics.Cache
	FineCache metrics.Cache

	FineCacheMemoryBytes uint64
	PageCacheMemoryBytes uint64
	Threshold            uint32
	Core                 core.Stats

	// Faults is the injection/recovery ledger, nil when no fault profile is
	// armed — so the rendered report is unchanged for fault-free systems.
	Faults *fault.Report

	// Stages is the per-request time attribution accumulated across the
	// run; its waterfall table is the conservation invariant made visible.
	Stages telemetry.StageSnapshot
	// Resources is the per-resource occupancy snapshot (NAND channels and
	// dies, PCIe DMA link, NVMe ring).
	Resources *resource.Snapshot
}

// Report gathers a snapshot.
func (s *System) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Report(s.st.Report(s.clock.Now()))
}

// String renders the report for humans.
func (r Report) String() string { return baseline.Report(r).String() }
