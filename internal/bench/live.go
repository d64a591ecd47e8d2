package bench

import (
	"sort"
	"strings"
	"sync"
	"time"

	"pipette/internal/baseline"
	"pipette/internal/resource"
	"pipette/internal/telemetry"
)

// Live is the harness's bridge into the unified metrics registry: one
// instance aggregates every finished cell's counters — SSD traffic, cache
// activity, KV log maintenance, fault/recovery ledgers — into the live
// Prometheus families of baseline.Counters, and tracks per-cell
// completion for the /progress endpoint. Cells stay fully private
// simulations; they report into Live only at completion (atomic adds), so
// a scraper polling /metrics at any rate observes the suite's progress
// without perturbing a single cell — the rendered tables are
// byte-identical with or without a listener.
type Live struct {
	reg *telemetry.Registry

	cellsDone *telemetry.Counter
	opsDone   *telemetry.Counter
	cellWall  *telemetry.LiveHistogram
	counters  []*telemetry.Counter // one per baseline.Counters row

	mu      sync.Mutex
	total   int
	cells   map[string]*cellState
	resBusy map[string]*telemetry.Counter
}

// cellState is one cell's /progress record.
type cellState struct {
	Label       string  `json:"label"`
	State       string  `json:"state"` // pending | running | done | failed
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	started     time.Time
}

// NewLive registers the harness's metric families on reg: its own bench_*
// families and every row of baseline.Counters.
func NewLive(reg *telemetry.Registry) *Live {
	l := &Live{reg: reg, cells: make(map[string]*cellState), resBusy: make(map[string]*telemetry.Counter)}
	l.cellsDone = reg.Counter("bench_cells_done_total", "experiment cells completed")
	l.opsDone = reg.Counter("bench_ops_total", "measured simulated operations completed by finished cells")
	l.cellWall = reg.Histogram("bench_cell_wall_seconds", "wall-clock cost of one cell",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	reg.GaugeFunc("bench_cells_total", "experiment cells scheduled", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.total)
	})
	reg.GaugeFunc("bench_cells_running", "experiment cells currently executing", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		n := 0
		for _, c := range l.cells {
			if c.State == "running" {
				n++
			}
		}
		return float64(n)
	})
	for i := range baseline.Counters {
		c := &baseline.Counters[i]
		l.counters = append(l.counters, reg.Counter(c.Name, c.Help, c.Labels()...))
	}
	return l
}

// Fold adds one finished cell's ledger to every counter row. A cell fills
// only the parts it produced; the rest are zero and add nothing.
func (l *Live) Fold(in *baseline.Ledger) {
	if l == nil {
		return
	}
	for i := range baseline.Counters {
		l.counters[i].Add(baseline.Counters[i].Get(in))
	}
}

// AddResources folds one finished cell's per-resource busy time into the
// bench_resource_busy_ns_total family: the channel buses and the host
// links. Per-die rows are skipped — a family of 64 way series would swamp
// the exposition, and the die detail lives in the run exports. Series are
// registered on first sight in the snapshot's (deterministic) resource
// order; every cell shares one layout, so whichever cell finishes first
// registers the same series in the same order.
func (l *Live) AddResources(s *resource.Snapshot) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	counters := make([]*telemetry.Counter, 0, len(s.Resources))
	values := make([]uint64, 0, len(s.Resources))
	for _, r := range s.Resources {
		if strings.Contains(r.Name, ".w") {
			continue
		}
		c, ok := l.resBusy[r.Name]
		if !ok {
			c = l.reg.Counter("bench_resource_busy_ns_total",
				"cumulative busy virtual time per simulated resource across finished cells",
				telemetry.L("resource", r.Name))
			l.resBusy[r.Name] = c
		}
		counters = append(counters, c)
		values = append(values, uint64(r.BusyNs))
	}
	l.mu.Unlock()
	for i, c := range counters {
		c.Add(values[i])
	}
}

// cellStarted records a cell entering execution.
func (l *Live) cellStarted(label string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.cells[label]
	if !ok {
		c = &cellState{Label: label}
		l.cells[label] = c
		l.total++
	}
	c.State = "running"
	c.started = time.Now()
}

// cellFinished records a cell's completion and folds its perf numbers in.
func (l *Live) cellFinished(label string, pf CellPerf, failed bool) {
	if l == nil {
		return
	}
	l.cellsDone.Inc()
	l.opsDone.Add(pf.Ops)
	l.cellWall.Observe(pf.WallSeconds)
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.cells[label]
	if !ok {
		c = &cellState{Label: label}
		l.cells[label] = c
		l.total++
	}
	c.State = "done"
	if failed {
		c.State = "failed"
	}
	c.WallSeconds = pf.WallSeconds
}

// Progress returns the /progress document: overall counts plus the
// per-cell completion list, sorted by label for stable output.
func (l *Live) Progress() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	cells := make([]cellState, 0, len(l.cells))
	done := 0
	for _, c := range l.cells {
		cells = append(cells, *c)
		if c.State == "done" || c.State == "failed" {
			done++
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Label < cells[j].Label })
	return struct {
		CellsTotal int         `json:"cells_total"`
		CellsDone  int         `json:"cells_done"`
		Cells      []cellState `json:"cells"`
	}{CellsTotal: l.total, CellsDone: done, Cells: cells}
}
