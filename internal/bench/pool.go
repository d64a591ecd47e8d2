package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"pipette/internal/baseline"
	"pipette/internal/report"
	"pipette/internal/sim"
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
	live    *Live         // nil unless -listen attached a registry
	tel     TelemetryOpts // the run's export artifacts; zero = none

	mu   sync.Mutex
	perf []CellPerf
	runs []report.Run // finished cells' run records, when tel.ExportOut is set
}

// TelemetryOpts directs a run's optional export artifacts. Zero values
// skip the corresponding file.
type TelemetryOpts struct {
	TraceOut      string   // phases: Chrome trace-event JSON (open in Perfetto)
	StatsOut      string   // phases: time-series CSV
	StatsInterval sim.Time // phases: sampling interval; 0 = 1 ms virtual
	// ExportOut names the run-export bundle (pipette-report input). The
	// pool records every finished cell's run for it; the caller writes
	// the file.
	ExportOut string
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

// SetTelemetry directs the run's export artifacts: the phases experiment
// reads its trace and stats paths from here, and with ExportOut set every
// finished cell's run record is kept for Runs.
func (p *Pool) SetTelemetry(o TelemetryOpts) {
	if p != nil {
		p.tel = o
	}
}

// Telemetry reports the run's export artifacts (zero for a nil pool).
func (p *Pool) Telemetry() TelemetryOpts {
	if p == nil {
		return TelemetryOpts{}
	}
	return p.tel
}

// Runs returns the recorded run records: each RunCells batch in cell
// order, batches in the order they ran.
func (p *Pool) Runs() []report.Run {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]report.Run(nil), p.runs...)
}

// Cell is one independently runnable unit of an experiment: typically one
// (engine, workload) pair over a private simulated system. Run returns the
// cell's measurement, which the pool records: its perf row, its ledger in
// the live registry, and its run record when the run exports. A cell that
// measures nothing may return nil.
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
// returning, so callers may reuse the slots the cells wrote. The batch's
// run records are kept in cell order, a failed batch's finished cells
// included, so a partial bundle still flushes them.
func (p *Pool) RunCells(cells []Cell) error {
	results := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	defer p.record(results)
	if p == nil || p.workers <= 1 {
		for i := range cells {
			if results[i], errs[i] = p.runCell(cells[i]); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = p.runCell(cells[i])
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

func (p *Pool) runCell(c Cell) (*Result, error) {
	defer flightPanic(c.Label)
	if p == nil {
		return c.Run()
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
		p.live.Fold(&baseline.Ledger{Snap: res.Snapshot, KV: res.KV, Index: res.IndexStats, Faults: res.Faults})
		p.live.AddResources(res.Resources)
	}
	p.live.cellFinished(c.Label, pf, err != nil)
	p.mu.Lock()
	p.perf = append(p.perf, pf)
	p.mu.Unlock()
	return res, err
}

// record keeps one batch's run records, in cell order, when the run
// exports.
func (p *Pool) record(results []*Result) {
	if p == nil || p.tel.ExportOut == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range results {
		if r != nil {
			p.runs = append(p.runs, ExportRun(r))
		}
	}
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
