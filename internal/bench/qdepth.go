package bench

import (
	"errors"
	"fmt"
	"io"

	"pipette/internal/baseline"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// OpenLoopOpts is RunOpts under the name the benchmark module's open-loop
// workload uses.
type OpenLoopOpts = RunOpts

// RunOpenLoop is Run for a replay that must be open loop: it fails when
// opts names no arrival process instead of falling back to a closed loop.
func RunOpenLoop(e baseline.Engine, gen workload.Generator, requests int, opts OpenLoopOpts) (*Result, error) {
	if opts.Arrivals == nil {
		return nil, errors.New("bench: open-loop replay needs an arrival process")
	}
	return Run(e, gen, requests, opts)
}

// qdepthEngineIdxs are the engines the saturation sweep compares: the
// conventional path, the strongest 2B-SSD mode, and full Pipette
// (indexes into EngineNames / newEngine).
var qdepthEngineIdxs = []int{0, 2, 4}

// qdepthKneeFrac is the saturation-knee criterion: the first offered rate
// whose achieved throughput falls below this fraction of offered marks
// the knee.
const qdepthKneeFrac = 0.95

// Bursty-arrival shape for the burst rows: bursts of 64 requests at 8x
// the average rate.
const (
	qdepthBurstLen  = 64
	qdepthBurstPeak = 8.0
)

// qdepthConfig is the per-cell stack: the shared sweep configuration with
// device-side contention fully on — the PCIe link serializes transfers
// and the NVMe fetch engine arbitrates submissions — so queueing shows up
// everywhere it physically would.
func qdepthConfig(s Scale) baseline.StackConfig {
	cfg := s.stackConfig(s.FileSize())
	cfg.SSD.LinkArbitration = true
	cfg.NVMe.Arbitration = 100 * sim.Nanosecond
	return cfg
}

// qdepthPoint is one cell of the sweep grid.
type qdepthPoint struct {
	engine int
	depth  int
	rate   float64 // offered ops/s; 0 = closed loop
	burst  bool
}

func (pt qdepthPoint) label() string {
	if pt.rate == 0 {
		return fmt.Sprintf("qdepth/%s/closed", EngineNames[pt.engine])
	}
	kind := "poisson"
	if pt.burst {
		kind = "bursty"
	}
	return fmt.Sprintf("qdepth/%s/qd%d/%s@%.0f", EngineNames[pt.engine], pt.depth, kind, pt.rate)
}

// workload names the point for export rows.
func (pt qdepthPoint) workload() string {
	if pt.rate == 0 {
		return "mixE-closed"
	}
	kind := "poisson"
	if pt.burst {
		kind = "bursty"
	}
	return fmt.Sprintf("mixE-qd%d-%s@%.0f", pt.depth, kind, pt.rate)
}

// qdepthPoints enumerates the sweep grid in render order: per engine, the
// closed-loop reference, then per depth the Poisson rate sweep (ascending)
// plus one bursty point at a mid-sweep rate.
func qdepthPoints(s Scale) []qdepthPoint {
	burstRate := s.QDepthRates[(len(s.QDepthRates)-1)/2]
	var points []qdepthPoint
	for _, ei := range qdepthEngineIdxs {
		points = append(points, qdepthPoint{engine: ei, depth: 1})
		for _, d := range s.QDepths {
			for _, r := range s.QDepthRates {
				points = append(points, qdepthPoint{engine: ei, depth: d, rate: r})
			}
			points = append(points, qdepthPoint{engine: ei, depth: d, rate: burstRate, burst: true})
		}
	}
	return points
}

// writeQDepth runs the saturation sweep: arrival rate x queue depth x
// engine over workload mix E (100% small reads, uniform), open loop with
// Poisson and bursty arrivals plus the closed-loop reference, and prints
// the throughput-vs-latency table and each configuration's saturation
// knee. Each point's run record carries the queue stage and per-resource
// occupancy pipette-report plots. Each point is a pool cell over a private
// system; rendering happens after all complete, in grid order, so the
// output is byte-identical at any worker count.
func writeQDepth(w io.Writer, s Scale, p *Pool) error {
	if len(s.QDepths) == 0 || len(s.QDepthRates) == 0 || s.QDepthRequests <= 0 {
		return errors.New("bench: scale has no qdepth sweep parameters")
	}
	mixE := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4]
	points := qdepthPoints(s)
	slots := make([]*Result, len(points))

	cells := make([]Cell, len(points))
	for i, pt := range points {
		i, pt := i, pt
		cells[i] = Cell{
			Label: pt.label(),
			Run: func() (*Result, error) {
				e, err := newEngine(pt.engine, qdepthConfig(s))
				if err != nil {
					return nil, err
				}
				gen, err := workload.NewSynthetic(mixE)
				if err != nil {
					return nil, err
				}
				var arr workload.Arrivals // nil for the closed-loop reference
				switch {
				case pt.burst:
					arr, err = workload.NewBursty(pt.rate, qdepthBurstLen, qdepthBurstPeak, 0xa221)
				case pt.rate > 0:
					arr, err = workload.NewPoisson(pt.rate, 0xa221)
				}
				if err != nil {
					return nil, err
				}
				res, err := Run(e, gen, s.QDepthRequests, RunOpts{
					Arrivals: arr, Depth: pt.depth, Offered: pt.rate,
					TolerateMediaErrors: true,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", pt.label(), err)
				}
				res.Workload = pt.workload()
				slots[i] = res
				return res, nil
			},
		}
	}
	if err := p.RunCells(cells); err != nil {
		return err
	}

	fmt.Fprintf(w, "=== Throughput vs latency: mix E uniform, open loop (scale %s, %d requests/point) ===\n",
		s.Name, s.QDepthRequests)
	renderQDepthTable(w, points, slots)
	fmt.Fprintln(w)
	renderQDepthKnees(w, s, points, slots)
	return nil
}

func renderQDepthTable(w io.Writer, points []qdepthPoint, slots []*Result) {
	t := &simpleTable{header: []string{
		"engine", "qd", "arrivals", "offered/s", "achieved/s",
		"mean(us)", "p50(us)", "p99(us)", "queue(us)", "rejected"}}
	for i, pt := range points {
		r := slots[i]
		if r == nil {
			continue
		}
		arrName := "closed"
		offered := "-"
		qd := fmt.Sprintf("%d", pt.depth)
		if pt.rate > 0 {
			arrName = r.Arrivals
			offered = fmt.Sprintf("%.0f", pt.rate)
		} else {
			qd = "1"
		}
		// Mean queue time over all requests (the stage total averages over
		// every request, not only the ones that waited).
		var queueUs float64
		if r.Stages.Requests > 0 {
			queueUs = (sim.Time(int64(r.Stages.Totals[telemetry.StageQueue])) /
				sim.Time(int64(r.Stages.Requests))).Micros()
		}
		t.addRow(
			EngineNames[pt.engine], qd, arrName, offered,
			fmt.Sprintf("%.0f", r.Snapshot.ThroughputOpsPerSec()),
			fmt.Sprintf("%.2f", r.Hist.Mean().Micros()),
			fmt.Sprintf("%.2f", r.Hist.Quantile(0.50).Micros()),
			fmt.Sprintf("%.2f", r.Hist.Quantile(0.99).Micros()),
			fmt.Sprintf("%.2f", queueUs),
			fmt.Sprintf("%d", r.Rejected),
		)
	}
	io.WriteString(w, t.render())
}

// renderQDepthKnees prints each (engine, depth) Poisson curve's saturation
// knee: the first offered rate whose achieved throughput drops below
// qdepthKneeFrac of offered.
func renderQDepthKnees(w io.Writer, s Scale, points []qdepthPoint, slots []*Result) {
	fmt.Fprintf(w, "saturation knees (achieved < %.0f%% of offered):\n", 100*qdepthKneeFrac)
	for _, ei := range qdepthEngineIdxs {
		for _, d := range s.QDepths {
			knee := ""
			for i, pt := range points {
				if pt.engine != ei || pt.depth != d || pt.rate == 0 || pt.burst || slots[i] == nil {
					continue
				}
				achieved := slots[i].Snapshot.ThroughputOpsPerSec()
				if achieved < qdepthKneeFrac*pt.rate {
					knee = fmt.Sprintf("offered %.0f op/s -> achieved %.0f op/s", pt.rate, achieved)
					break
				}
			}
			if knee == "" {
				knee = "beyond sweep (no saturation observed)"
			}
			fmt.Fprintf(w, "  %-18s qd=%-4d %s\n", EngineNames[ei], d, knee)
		}
	}
}

// simpleTable is a minimal fixed-width renderer mirroring metrics.Table's
// look for the qdepth sweep (kept local: the sweep right-aligns numeric
// columns and metrics.Table is shared API).
type simpleTable struct {
	header []string
	rows   [][]string
}

func (t *simpleTable) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *simpleTable) render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b []byte
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b = append(b, ' ', ' ')
			}
			if i == 0 {
				b = append(b, c...)
				for j := len(c); j < widths[i]; j++ {
					b = append(b, ' ')
				}
			} else {
				for j := len(c); j < widths[i]; j++ {
					b = append(b, ' ')
				}
				b = append(b, c...)
			}
		}
		b = append(b, '\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return string(b)
}
