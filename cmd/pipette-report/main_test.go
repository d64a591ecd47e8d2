package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipette/internal/bench"
	"pipette/internal/report"
)

const baseline = "../../BENCH_baseline.json"

// diff runs -diff on old and cur and returns the exit code and output.
func diff(t *testing.T, tol float64, old, cur string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := runDiff([]string{old, cur}, tol, "", "diff", &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeSummary writes a copy of the committed baseline, edited by edit,
// and returns its path.
func writeSummary(t *testing.T, edit func(*bench.Summary)) string {
	t.Helper()
	s, err := bench.ReadSummary(baseline)
	if err != nil {
		t.Fatal(err)
	}
	edit(s)
	path := filepath.Join(t.TempDir(), "BENCH_edit.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffSelfIsZero(t *testing.T) {
	code, out, errs := diff(t, report.DefaultTolerance, baseline, baseline)
	if code != 0 || !strings.Contains(out, " 0 changed, 0 beyond 10% tolerance") {
		t.Fatalf("self-diff: exit %d, stderr %q, stdout:\n%s", code, errs, out)
	}
}

// TestDiffMissingCellFails pins that a baseline cell missing from the new
// summary fails -diff, as it fails the perf gate.
func TestDiffMissingCellFails(t *testing.T) {
	var dropped string
	cur := writeSummary(t, func(s *bench.Summary) {
		dropped = s.Cells[len(s.Cells)-1].Label
		s.Cells = s.Cells[:len(s.Cells)-1]
	})
	code, out, _ := diff(t, report.DefaultTolerance, baseline, cur)
	if code != 1 || !strings.Contains(out, "only in old: "+dropped) {
		t.Fatalf("dropped cell: exit %d, stdout:\n%s", code, out)
	}
	// The reverse direction only adds a cell: no failure.
	if code, out, _ := diff(t, report.DefaultTolerance, cur, baseline); code != 0 {
		t.Fatalf("added cell: exit %d, stdout:\n%s", code, out)
	}
}

// TestDiffRiseFromZeroFails pins that a latency rising from zero is an
// infinite change beyond any tolerance.
func TestDiffRiseFromZeroFails(t *testing.T) {
	old := writeSummary(t, func(s *bench.Summary) { s.Cells[0].P99Us = 0 })
	code, out, _ := diff(t, report.DefaultTolerance, old, baseline)
	if code != 1 || !strings.Contains(out, "+Inf% !") || !strings.Contains(out, " 1 changed, 1 beyond") {
		t.Fatalf("0 -> x p99: exit %d, stdout:\n%s", code, out)
	}
}

func TestDiffKindMismatch(t *testing.T) {
	exp := filepath.Join(t.TempDir(), "run.json")
	raw, err := json.Marshal(&report.Export{Tool: "pipette-sim", Runs: []report.Run{{Name: "Pipette", OpsPerSec: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(exp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := diff(t, report.DefaultTolerance, exp, exp); code != 0 {
		t.Fatalf("export self-diff: exit %d, want 0", code)
	}
	code, _, errs := diff(t, report.DefaultTolerance, baseline, exp)
	if code != 2 || !strings.Contains(errs, "cannot diff a summary against a export") {
		t.Fatalf("summary vs export: exit %d, stderr %q", code, errs)
	}
}

func TestDiffRejectsBadTolerance(t *testing.T) {
	for _, tol := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		code, out, errs := diff(t, tol, baseline, baseline)
		if code != 2 || out != "" || !strings.Contains(errs, "-tol") {
			t.Errorf("-tol %g: exit %d, stderr %q, stdout %q", tol, code, errs, out)
		}
	}
}
