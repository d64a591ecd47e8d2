package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"pipette/internal/baseline"
)

// Pool is the harness's worker-pool execution layer. Every experiment
// enumerates its (engine, workload) grid as independent Cells — each cell
// builds a fully private simulated system, so cells never share mutable
// state — and the pool replays them on a bounded number of goroutines.
// Results land in caller-provided slots addressed by cell index, so the
// rendered tables are byte-identical to a serial run at any worker count.
//
// A nil *Pool is valid and runs cells serially, in order, without perf
// accounting; it is what library callers that never asked for parallelism
// (tests, the public API) pass.
type Pool struct {
	workers int
	live    *Live // nil unless -listen attached a registry

	mu   sync.Mutex
	perf []CellPerf
}

// NewPool creates a pool with the given worker count. workers <= 0 selects
// GOMAXPROCS, the -j default.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the concurrency bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// SetLive attaches the live metrics bridge: finished cells fold their
// counters into it and /progress reflects per-cell completion. A nil
// pool or nil bridge keeps the zero-overhead default.
func (p *Pool) SetLive(l *Live) {
	if p != nil {
		p.live = l
	}
}

// Live reports the attached metrics bridge (nil when not listening).
func (p *Pool) Live() *Live {
	if p == nil {
		return nil
	}
	return p.live
}

// Cell is one independently runnable unit of an experiment: typically one
// (engine, workload) pair over a private simulated system. Run returns the
// cell's measurement for perf accounting; cells that do not produce a
// single Result (e.g. the phase breakdown) may return nil.
type Cell struct {
	Label string
	Run   func() (*Result, error)
}

// CellPerf is one executed cell's wall-clock cost and simulated
// measurements — the raw material of pipette-bench's -json perf summary
// and of the regression gate's baseline cells. Wall seconds are host time
// and vary run to run; every sim field is deterministic, so the gate can
// compare them exactly across commits.
type CellPerf struct {
	Label        string  `json:"label"`
	WallSeconds  float64 `json:"wall_seconds"`
	Ops          uint64  `json:"ops,omitempty"`
	SimOpsPerSec float64 `json:"sim_ops_per_sec,omitempty"`
	ReadAmp      float64 `json:"read_amp,omitempty"`
	MeanUs       float64 `json:"mean_us,omitempty"`
	P99Us        float64 `json:"p99_us,omitempty"`
}

// RunCells executes the cells, at most Workers() at a time, and returns the
// first error in cell order. It always drains every started cell before
// returning, so callers may reuse the slots the cells wrote.
func (p *Pool) RunCells(cells []Cell) error {
	if p == nil || p.workers <= 1 {
		for i := range cells {
			if err := p.runCell(cells[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(cells))
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = p.runCell(cells[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) runCell(c Cell) error {
	defer flightPanic(c.Label)
	if p == nil {
		_, err := c.Run()
		return err
	}
	p.live.cellStarted(c.Label)
	start := time.Now()
	res, err := c.Run()
	pf := CellPerf{Label: c.Label, WallSeconds: time.Since(start).Seconds()}
	if res != nil {
		pf.Ops = res.Snapshot.Ops
		pf.SimOpsPerSec = res.Snapshot.ThroughputOpsPerSec()
		pf.ReadAmp = res.Snapshot.IO.ReadAmplification()
		pf.MeanUs = res.Snapshot.MeanLat.Micros()
		pf.P99Us = res.Snapshot.P99Lat.Micros()
		p.live.Fold(&baseline.Ledger{Snap: res.Snapshot})
		p.live.AddResources(res.Resources)
	}
	p.live.cellFinished(c.Label, pf, err != nil)
	p.mu.Lock()
	p.perf = append(p.perf, pf)
	p.mu.Unlock()
	return err
}

// Perf returns the executed cells' perf records, sorted by label so the
// order is stable regardless of scheduling.
func (p *Pool) Perf() []CellPerf {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]CellPerf, len(p.perf))
	copy(out, p.perf)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
