package bench

import (
	"path/filepath"
	"testing"

	"pipette/internal/report"
)

func gateSummary(cells ...CellPerf) *Summary {
	return &Summary{Experiment: "phases,kv", Scale: "tiny", Workers: 2, Cells: cells}
}

func TestCompareAllClear(t *testing.T) {
	base := gateSummary(
		CellPerf{Label: "a", SimOpsPerSec: 1000, ReadAmp: 2.0, MeanUs: 10, P99Us: 50},
		CellPerf{Label: "b", SimOpsPerSec: 500, ReadAmp: 1.1, MeanUs: 20, P99Us: 90},
	)
	// Identical numbers (the deterministic same-commit case) and numbers
	// inside the band must both pass.
	d, err := Compare(base, base, report.DefaultTolerance)
	if err != nil || d.Failures() != 0 {
		t.Fatalf("self-compare: failures=%d err=%v", d.Failures(), err)
	}
	cur := gateSummary(
		CellPerf{Label: "a", SimOpsPerSec: 950, ReadAmp: 2.1, MeanUs: 10.5, P99Us: 54},
		CellPerf{Label: "b", SimOpsPerSec: 500, ReadAmp: 1.1, MeanUs: 20, P99Us: 90},
		CellPerf{Label: "new-cell", SimOpsPerSec: 1}, // no baseline: passes
	)
	d, err = Compare(cur, base, report.DefaultTolerance)
	if err != nil || d.Failures() != 0 {
		t.Fatalf("within-band compare: rows=%v err=%v", d.Rows, err)
	}
	// The in-band moves still show as changed rows.
	if d.Changed() != 4 {
		t.Errorf("within-band compare: %d changed rows, want 4", d.Changed())
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "new-cell" {
		t.Errorf("OnlyNew = %v, want [new-cell]", d.OnlyNew)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := gateSummary(
		CellPerf{Label: "a", SimOpsPerSec: 1000, ReadAmp: 2.0, MeanUs: 10, P99Us: 50},
		CellPerf{Label: "gone", SimOpsPerSec: 1},
	)
	cur := gateSummary(
		CellPerf{Label: "a", SimOpsPerSec: 800, ReadAmp: 2.5, MeanUs: 12, P99Us: 60},
		CellPerf{Label: "fresh", SimOpsPerSec: 7},
	)
	d, err := Compare(cur, base, report.DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if d.Exceeded() != 4 || d.Failures() != 5 {
		t.Errorf("exceeded %d failures %d, want 4 and 5 (rows %v)", d.Exceeded(), d.Failures(), d.Rows)
	}
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "gone" {
		t.Errorf("OnlyOld = %v, want [gone]", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "fresh" {
		t.Errorf("OnlyNew = %v, want [fresh]", d.OnlyNew)
	}
	// The golden gate text: every metric, the missing cell, sorted by
	// cell then metric, with the crossed limit.
	want := `perf gate: 2 baseline cells, 2 current cells, 5 regressions
  REGRESSION a: mean_us 10 -> 12 (limit 11)
  REGRESSION a: p99_us 50 -> 60 (limit 55)
  REGRESSION a: read_amp 2 -> 2.5 (limit 2.2)
  REGRESSION a: sim_ops_per_sec 1000 -> 800 (limit 900)
  REGRESSION gone: missing cell 0 -> 0 (limit 0)
`
	if got := GateReport(cur, base, d); got != want {
		t.Errorf("gate report:\n%s\nwant:\n%s", got, want)
	}
	if got := GateReport(base, base, &report.Diff{}); got != "perf gate: 2 baseline cells, 2 current cells, 0 regressions\n  all cells within tolerance\n" {
		t.Errorf("all-clear gate report:\n%s", got)
	}
}

func TestCompareToleranceBands(t *testing.T) {
	base := gateSummary(CellPerf{Label: "a", SimOpsPerSec: 1000})
	// 15% drop passes at 20% tolerance, fails at 10%.
	cur := gateSummary(CellPerf{Label: "a", SimOpsPerSec: 850})
	if d, _ := Compare(cur, base, 0.20); d.Failures() != 0 {
		t.Fatalf("15%% drop flagged at 20%% tolerance: %v", d.Rows)
	}
	if d, _ := Compare(cur, base, 0.10); d.Failures() != 1 {
		t.Fatalf("15%% drop not flagged at 10%% tolerance: %v", d.Rows)
	}
}

func TestCompareMismatchErrors(t *testing.T) {
	base := gateSummary()
	curScale := &Summary{Experiment: base.Experiment, Scale: "quick"}
	if _, err := Compare(curScale, base, report.DefaultTolerance); err == nil {
		t.Fatal("scale mismatch must error")
	}
	curExp := &Summary{Experiment: "all", Scale: base.Scale}
	if _, err := Compare(curExp, base, report.DefaultTolerance); err == nil {
		t.Fatal("experiment mismatch must error")
	}
}

// TestDiffSummariesSelfIsZero pins the pipette-report -diff contract on
// the bench-summary path: a summary diffed against itself compares every
// nonzero metric, changes none, and exceeds nothing.
func TestDiffSummariesSelfIsZero(t *testing.T) {
	s := gateSummary(
		CellPerf{Label: "a", SimOpsPerSec: 1000, ReadAmp: 2.0, MeanUs: 10, P99Us: 50},
		CellPerf{Label: "b", SimOpsPerSec: 500, ReadAmp: 1.1, MeanUs: 20, P99Us: 90},
	)
	d, err := Compare(s, s, report.DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 8 {
		t.Fatalf("compared %d metrics, want 8 (2 cells x 4)", len(d.Rows))
	}
	if d.Changed() != 0 || d.Failures() != 0 {
		t.Fatalf("self-diff: changed %d failures %d, want 0 and 0", d.Changed(), d.Failures())
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	s := gateSummary(CellPerf{Label: "a", WallSeconds: 1.5, Ops: 100, SimOpsPerSec: 1000, ReadAmp: 2, MeanUs: 10, P99Us: 50})
	s.Rev = "abc123"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != "abc123" || len(got.Cells) != 1 || got.Cells[0] != s.Cells[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := ReadSummary(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
}
