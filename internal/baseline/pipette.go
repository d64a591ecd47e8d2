package baseline

import (
	"pipette/internal/core"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

// PipetteEngine is the full framework: fine-grained read path plus the
// adaptive fine-grained read cache.
type PipetteEngine struct {
	s    *stack
	p    *core.Pipette
	name string
}

// NewPipette builds the full-framework engine.
func NewPipette(cfg StackConfig) (*PipetteEngine, error) {
	return newPipetteEngine(cfg, false)
}

// NewPipetteNoCache builds the paper's "Pipette w/o cache" configuration:
// the byte-granular path without the fine-grained read cache.
func NewPipetteNoCache(cfg StackConfig) (*PipetteEngine, error) {
	return newPipetteEngine(cfg, true)
}

func newPipetteEngine(cfg StackConfig, noCache bool) (*PipetteEngine, error) {
	s, err := newStack(cfg, vfs.ReadWrite|vfs.FineGrained)
	if err != nil {
		return nil, err
	}
	p, err := core.New(s.v, s.drv, cfg.Core)
	if err != nil {
		return nil, err
	}
	name := "Pipette"
	if noCache {
		p.DisableCache()
		name = "Pipette w/o cache"
	}
	p.SetStages(s.sa)
	if s.inj != nil {
		p.SetInjector(s.inj)
	}
	return &PipetteEngine{s: s, p: p, name: name}, nil
}

// Name implements Engine.
func (e *PipetteEngine) Name() string { return e.name }

// ReadAt implements Engine.
func (e *PipetteEngine) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	return e.s.file.ReadFull(now, buf, off)
}

// WriteAt implements Engine.
func (e *PipetteEngine) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	_, done, err := e.s.file.WriteAt(now, data, off)
	return done, err
}

// Snapshot implements Engine.
func (e *PipetteEngine) Snapshot() metrics.Snapshot {
	return snapshotOf(e.name, e.s, e.p)
}

// Oracle implements Engine.
func (e *PipetteEngine) Oracle(buf []byte, off int64) error { return e.s.oracle(buf, off) }

// SetTracer implements Engine: instruments the stack and the fine-grained
// read framework.
func (e *PipetteEngine) SetTracer(tr telemetry.Tracer) {
	e.s.setTracer(tr)
	e.p.SetTracer(telemetry.OrNop(tr))
}

// Probes implements Engine: the shared stack series plus the fine-path
// series.
func (e *PipetteEngine) Probes() []telemetry.Probe { return stackProbes(e.s, e.p) }

// Faults implements Engine: the stack counters plus the host-side fine
// fallbacks.
func (e *PipetteEngine) Faults() fault.Report {
	f := e.s.faults()
	f.RingFallbacks = e.p.RingFallbacks()
	f.DMAFallbacks = e.p.DMAFallbacks()
	return f
}

// Stages implements Engine.
func (e *PipetteEngine) Stages() *telemetry.StageAccount { return e.s.sa }

// Resources implements Engine.
func (e *PipetteEngine) Resources() *resource.Tracker { return e.s.res }

// Sync implements Engine.
func (e *PipetteEngine) Sync(now sim.Time) (sim.Time, error) { return e.s.file.Sync(now) }

// Core exposes the framework (ablation benches tune and inspect it).
func (e *PipetteEngine) Core() *core.Pipette { return e.p }
