package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func diffTestExport() *Export {
	return &Export{
		Tool:    "pipette-bench",
		Version: "test",
		Scale:   "tiny",
		Runs: []Run{
			{
				Name: "Pipette", Workload: "mixC", Requests: 1000,
				OpsPerSec: 20000, ReadAmp: 2.3,
				Latency: Percentiles{MeanUs: 50, P99Us: 74, MaxUs: 90},
			},
			{
				Name: "Pipette", Workload: "qdepth", Requests: 500,
				OpsPerSec: 15000, OfferedOpsPerSec: 100000, QueueDepth: 8, Arrivals: "poisson",
				Latency: Percentiles{MeanUs: 80, P99Us: 200, MaxUs: 400},
			},
		},
	}
}

// TestDiffExportsSelfIsZero pins the -diff acceptance contract: a run
// diffed against itself compares every metric, changes none, and exceeds
// nothing.
func TestDiffExportsSelfIsZero(t *testing.T) {
	e := diffTestExport()
	d := DiffExports(e, e, 0.10)
	if len(d.Rows) == 0 {
		t.Fatal("self-diff compared no metrics")
	}
	if d.Changed() != 0 || d.Exceeded() != 0 {
		t.Fatalf("self-diff: changed %d exceeded %d, want 0 and 0", d.Changed(), d.Exceeded())
	}
	if len(d.OnlyOld) != 0 || len(d.OnlyNew) != 0 {
		t.Fatalf("self-diff has unmatched runs: old %v new %v", d.OnlyOld, d.OnlyNew)
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 changed, 0 beyond 10% tolerance") {
		t.Errorf("text summary wrong:\n%s", buf.String())
	}
}

// TestDiffExportsDirections checks tolerance flagging is directional:
// latency up and throughput down regress; the mirror-image improvements
// never flag no matter how large.
func TestDiffExportsDirections(t *testing.T) {
	old, cur := diffTestExport(), diffTestExport()
	cur.Runs[0].Latency.P99Us = 74 * 1.5 // +50%: beyond 10%
	cur.Runs[0].OpsPerSec = 20000 * 0.5  // -50%: beyond 10%
	cur.Runs[0].ReadAmp = 2.3 * 1.05     // +5%: inside 10%
	cur.Runs[1].Latency.P99Us = 200 / 2  // improvement, never flags
	cur.Runs[1].OpsPerSec = 15000 * 3    // improvement, never flags

	d := DiffExports(old, cur, 0.10)
	flagged := map[string]bool{}
	for _, r := range d.Rows {
		if r.Exceeds {
			flagged[r.Run+"/"+r.Metric] = true
		}
	}
	if len(flagged) != 2 {
		t.Fatalf("flagged %v, want exactly the run-0 p99 rise and ops drop", flagged)
	}
	for _, want := range []string{"/p99_us", "/ops_per_sec"} {
		found := false
		for k := range flagged {
			if strings.HasSuffix(k, want) && !strings.Contains(k, "offered") {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a flagged %s row, flagged: %v", want, flagged)
		}
	}
}

func TestDiffExportsUnmatchedRuns(t *testing.T) {
	old, cur := diffTestExport(), diffTestExport()
	cur.Runs = cur.Runs[:1] // drop the open-loop run
	cur.Runs = append(cur.Runs, Run{Name: "Block I/O", Workload: "mixC",
		OpsPerSec: 1, Latency: Percentiles{MeanUs: 1}})

	d := DiffExports(old, cur, 0.10)
	if len(d.OnlyOld) != 1 || !strings.Contains(d.OnlyOld[0], "qd=8") {
		t.Errorf("OnlyOld = %v, want the open-loop sweep point", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || !strings.Contains(d.OnlyNew[0], "Block I/O") {
		t.Errorf("OnlyNew = %v, want the new engine", d.OnlyNew)
	}
	// The missing run fails the comparison; the new one does not.
	if d.Exceeded() != 0 || d.Failures() != 1 {
		t.Errorf("exceeded %d failures %d, want 0 and 1", d.Exceeded(), d.Failures())
	}
}

// TestVerdict pins the one comparison rule: the band edge itself passes,
// anything past it in the regressing direction exceeds, improvements
// never do, and a rise from zero exceeds only where up is bad.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name          string
		old, cur, tol float64
		upIsBad       bool
		limit         float64
		exceeds       bool
	}{
		{"latency at the edge", 100, 110, 0.10, true, 110, false},
		{"latency past the edge", 100, 110.001, 0.10, true, 110, true},
		{"throughput at the edge", 100, 90, 0.10, false, 90, false},
		{"throughput past the edge", 100, 89.999, 0.10, false, 90, true},
		{"latency improves a lot", 100, 1, 0.10, true, 110, false},
		{"throughput improves a lot", 100, 1e6, 0.10, false, 90, false},
		{"latency rises from zero", 0, 1.5, 0.10, true, 0, true},
		{"throughput rises from zero", 0, 1.5, 0.10, false, 0, false},
		{"throughput falls to zero", 100, 0, 0.10, false, 90, true},
		{"latency falls to zero", 100, 0, 0.10, true, 110, false},
		{"zero tolerance, no change", 100, 100, 0, true, 100, false},
	} {
		limit, exceeds := verdict(tc.old, tc.cur, tc.tol, tc.upIsBad)
		if exceeds != tc.exceeds || math.Abs(limit-tc.limit) > 1e-9 {
			t.Errorf("%s: verdict(%g, %g, %g, %v) = (%g, %v), want (%g, %v)",
				tc.name, tc.old, tc.cur, tc.tol, tc.upIsBad, limit, exceeds, tc.limit, tc.exceeds)
		}
	}
}

// TestMatchRules pins the matcher's item and zero rules: repeated keys
// pair in order, a metric zero on both sides gets no row, and a rise from
// zero is an infinite, changed delta.
func TestMatchRules(t *testing.T) {
	type item struct {
		key string
		v   float64
	}
	metrics := []Metric[item]{{Name: "v", Get: func(i *item) float64 { return i.v }, UpIsBad: true}}
	key := func(i *item) string { return i.key }
	old := []item{{"a", 1}, {"a", 2}, {"a", 3}, {"z", 0}, {"gone", 1}}
	cur := []item{{"a", 1}, {"fresh", 1}, {"a", 2}, {"z", 4}}
	d := Match(old, cur, key, metrics, DefaultTolerance)
	if len(d.Rows) != 3 {
		t.Fatalf("rows %v, want a/1, a/2 and z", d.Rows)
	}
	if d.Rows[0].Old != 1 || d.Rows[1].Old != 2 || d.Rows[0].DeltaPct != 0 || d.Rows[1].DeltaPct != 0 {
		t.Errorf("repeated keys paired out of order: %v", d.Rows[:2])
	}
	if z := d.Rows[2]; !math.IsInf(z.DeltaPct, 1) || !z.Exceeds {
		t.Errorf("rise from zero: %+v, want +Inf delta, exceeding", z)
	}
	if d.Changed() != 1 {
		t.Errorf("changed %d, want 1", d.Changed())
	}
	if strings.Join(d.OnlyOld, ",") != "a,gone" || strings.Join(d.OnlyNew, ",") != "fresh" {
		t.Errorf("OnlyOld %v OnlyNew %v, want [a gone] and [fresh]", d.OnlyOld, d.OnlyNew)
	}
	if d.Failures() != 3 {
		t.Errorf("failures %d, want 3 (one row, two missing items)", d.Failures())
	}
	same := Match([]item{{"z", 0}}, []item{{"z", 0}}, key, metrics, DefaultTolerance)
	if len(same.Rows) != 0 || same.Failures() != 0 {
		t.Errorf("zero on both sides: rows %v failures %d, want none", same.Rows, same.Failures())
	}
}

func TestCheckTolerance(t *testing.T) {
	for _, tol := range []float64{0, 0.1, 2} {
		if err := CheckTolerance(tol); err != nil {
			t.Errorf("CheckTolerance(%g) = %v, want nil", tol, err)
		}
	}
	for _, tol := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckTolerance(tol); err == nil {
			t.Errorf("CheckTolerance(%g) = nil, want an error", tol)
		}
	}
}

func TestDiffWriteHTMLHighlights(t *testing.T) {
	old, cur := diffTestExport(), diffTestExport()
	cur.Runs[0].Latency.P99Us = 200
	d := DiffExports(old, cur, 0.10)
	var buf bytes.Buffer
	if err := d.WriteHTML(&buf, "diff"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "class=\"worse\"") {
		t.Error("beyond-tolerance row not highlighted")
	}
	if !strings.Contains(out, "class=\"same\"") {
		t.Error("unchanged rows not dimmed")
	}
}
