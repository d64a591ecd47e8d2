// Package baseline implements the five engines the paper's evaluation
// compares (§4.1): conventional block I/O, 2B-SSD in its MMIO and DMA read
// modes, Pipette without its fine-grained read cache, and full Pipette.
// Each engine owns a complete simulated system (NAND, FTL, controller,
// driver, block layer, filesystem, VFS) built by NewStack, the one stack
// assembler in the repo, so runs are independent; all five expose the same
// Engine interface to the benchmark harness.
package baseline

import (
	"errors"
	"fmt"

	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/resource"
	"pipette/internal/sim"
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

// VFSEngine serves every request through the VFS over its own Stack and a
// preloaded workload file. Without a core it is the conventional read path
// (page cache + read-ahead + block layer); with one, FineGrained reads take
// Pipette's byte-granular path.
type VFSEngine struct {
	st   *Stack
	file *vfs.File
	name string
}

// NewBlockIO builds the block I/O engine.
func NewBlockIO(cfg StackConfig) (*VFSEngine, error) {
	return newVFSEngine(cfg, "Block I/O", false)
}

// NewPipette builds the full-framework engine: fine-grained read path plus
// the adaptive fine-grained read cache.
func NewPipette(cfg StackConfig) (*VFSEngine, error) {
	return newVFSEngine(cfg, "Pipette", true)
}

// NewPipetteNoCache builds the paper's "Pipette w/o cache" configuration:
// the byte-granular path without the fine-grained read cache.
func NewPipetteNoCache(cfg StackConfig) (*VFSEngine, error) {
	e, err := newVFSEngine(cfg, "Pipette w/o cache", true)
	if err != nil {
		return nil, err
	}
	e.st.Core.DisableCache()
	return e, nil
}

func newVFSEngine(cfg StackConfig, name string, fine bool) (*VFSEngine, error) {
	if cfg.FileSize <= 0 {
		return nil, errors.New("baseline: FileSize must be positive")
	}
	st, err := NewStack(cfg, fine)
	if err != nil {
		return nil, err
	}
	if uint64(cfg.FileSize/int64(st.Ctrl.PageSize())+1) > st.Ctrl.LogicalPages() {
		return nil, fmt.Errorf("baseline: file %d B exceeds device capacity %d pages",
			cfg.FileSize, st.Ctrl.LogicalPages())
	}
	flags := vfs.ReadWrite
	if fine {
		flags |= vfs.FineGrained
	}
	file, err := st.V.Create(FileName, cfg.FileSize, extfs.CreateOpts{Preload: true}, flags)
	if err != nil {
		return nil, err
	}
	return &VFSEngine{st: st, file: file, name: name}, nil
}

// Name implements Engine.
func (e *VFSEngine) Name() string { return e.name }

// ReadAt implements Engine.
func (e *VFSEngine) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	return e.file.ReadFull(now, buf, off)
}

// WriteAt implements Engine.
func (e *VFSEngine) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	_, done, err := e.file.WriteAt(now, data, off)
	return done, err
}

// Sync implements Engine.
func (e *VFSEngine) Sync(now sim.Time) (sim.Time, error) { return e.file.Sync(now) }

// Snapshot implements Engine.
func (e *VFSEngine) Snapshot() metrics.Snapshot { return e.st.Snapshot(e.name) }

// Oracle implements Engine: the file's current content, dirty page-cache
// pages and queued writeback over the device's, read without disturbing
// cache statistics (vfs.File.Peek).
func (e *VFSEngine) Oracle(buf []byte, off int64) error {
	return e.file.Peek(off, buf)
}

// SetTracer implements Engine.
func (e *VFSEngine) SetTracer(tr telemetry.Tracer) { e.st.SetTracer(tr) }

// Probes implements Engine.
func (e *VFSEngine) Probes() []telemetry.Probe { return e.st.Probes() }

// Faults implements Engine.
func (e *VFSEngine) Faults() fault.Report { return e.st.Faults() }

// Stages implements Engine.
func (e *VFSEngine) Stages() *telemetry.StageAccount { return e.st.SA }

// Resources implements Engine.
func (e *VFSEngine) Resources() *resource.Tracker { return e.st.Res }

// Report summarizes the engine's stack at virtual time now.
func (e *VFSEngine) Report(now sim.Time) Report { return e.st.Report(now) }

// Core exposes the framework (ablation benches tune and inspect it); nil
// for block I/O.
func (e *VFSEngine) Core() *core.Pipette { return e.st.Core }
