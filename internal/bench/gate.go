package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"pipette/internal/report"
)

// Summary is the machine-readable record of one suite run: the shape of
// BENCH_<rev>.json. Wall-clock fields are informational (they vary with
// the host); the per-cell simulated metrics are deterministic, which is
// what makes the regression gate exact — same code, same scale, same
// numbers, so any drift beyond tolerance is a real change.
type Summary struct {
	Rev         string     `json:"rev,omitempty"`
	Experiment  string     `json:"experiment"`
	Scale       string     `json:"scale"`
	Workers     int        `json:"workers"`
	WallSeconds float64    `json:"wall_seconds"`
	Cells       []CellPerf `json:"cells"`
}

// WriteFile writes the summary as indented JSON to path ("-" = stdout).
func (s *Summary) WriteFile(path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSummary loads a summary (e.g. the committed BENCH_baseline.json).
func ReadSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: baseline %s: %w", path, err)
	}
	return &s, nil
}

var cellMetrics = []report.Metric[CellPerf]{
	{Name: "sim_ops_per_sec", Get: func(c *CellPerf) float64 { return c.SimOpsPerSec }},
	{Name: "read_amp", Get: func(c *CellPerf) float64 { return c.ReadAmp }, UpIsBad: true},
	{Name: "mean_us", Get: func(c *CellPerf) float64 { return c.MeanUs }, UpIsBad: true},
	{Name: "p99_us", Get: func(c *CellPerf) float64 { return c.P99Us }, UpIsBad: true},
}

// Compare diffs cur against base cell by cell with report.Match on
// simulated throughput, read amplification, and mean and p99 latency. It
// is both the CI perf gate and pipette-report -diff on summaries: the
// gate fails when the diff's Failures() is nonzero, that is when a metric
// crosses the tol band in its regressing direction or a baseline cell is
// missing. Cells new in cur pass silently — they have no baseline yet.
// Mismatched scale or experiment set is an error, not a regression: the
// numbers would be incomparable.
func Compare(cur, base *Summary, tol float64) (*report.Diff, error) {
	if cur.Scale != base.Scale {
		return nil, fmt.Errorf("bench: scale mismatch: current %q vs baseline %q", cur.Scale, base.Scale)
	}
	if cur.Experiment != base.Experiment {
		return nil, fmt.Errorf("bench: experiment mismatch: current %q vs baseline %q", cur.Experiment, base.Experiment)
	}
	d := report.Match(base.Cells, cur.Cells, func(c *CellPerf) string { return c.Label }, cellMetrics, tol)
	d.OldLabel, d.NewLabel = summaryLabel(base), summaryLabel(cur)
	return d, nil
}

func summaryLabel(s *Summary) string {
	l := s.Experiment + " scale=" + s.Scale
	if s.Rev != "" {
		l += " rev=" + s.Rev
	}
	return l
}

// GateReport renders the compare outcome for humans: the rows beyond
// tolerance and the missing baseline cells, sorted by cell and metric
// (empty = all clear).
func GateReport(cur, base *Summary, d *report.Diff) string {
	regs := make([]report.DiffRow, 0, d.Failures())
	for _, r := range d.Rows {
		if r.Exceeds {
			regs = append(regs, r)
		}
	}
	for _, label := range d.OnlyOld {
		regs = append(regs, report.DiffRow{Run: label, Metric: "missing cell"})
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Run != regs[j].Run {
			return regs[i].Run < regs[j].Run
		}
		return regs[i].Metric < regs[j].Metric
	})
	var b strings.Builder
	fmt.Fprintf(&b, "perf gate: %d baseline cells, %d current cells, %d regressions\n",
		len(base.Cells), len(cur.Cells), len(regs))
	for _, r := range regs {
		fmt.Fprintf(&b, "  REGRESSION %s: %s %.4g -> %.4g (limit %.4g)\n", r.Run, r.Metric, r.Old, r.New, r.Limit)
	}
	if len(regs) == 0 {
		b.WriteString("  all cells within tolerance\n")
	}
	return b.String()
}
