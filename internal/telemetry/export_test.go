package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipette/internal/sim"
)

// TestExportsFlushOnMidRunError is the regression test for the truncated-
// artifact bug: a run that errors halfway must still leave complete,
// parseable trace JSON and stats CSV covering the samples collected so
// far — exactly what the deferred Close in the CLIs now guarantees.
func TestExportsFlushOnMidRunError(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	statsPath := filepath.Join(dir, "stats.csv")

	rec := NewRecorder()
	sampler, err := NewSampler(10*sim.Microsecond, []Probe{
		{Name: "ops", Sample: func(sim.Time) float64 { return 1 }},
	})
	if err != nil {
		t.Fatal(err)
	}

	var exports Exports
	if err := exports.Add(tracePath, rec.WriteChromeTrace); err != nil {
		t.Fatal(err)
	}
	if err := exports.Add(statsPath, sampler.WriteCSV); err != nil {
		t.Fatal(err)
	}

	// Simulated experiment: 100 requests planned, dies at request 40.
	runErr := func() (err error) {
		defer exports.Close()
		for i := 0; i < 100; i++ {
			now := sim.Time(i) * 25 * sim.Microsecond
			rec.BeginRequest("read", now)
			rec.Span(TrackSSD, "exec", now, now+sim.Microsecond)
			rec.EndRequest(now + 2*sim.Microsecond)
			sampler.Tick(now)
			if i == 40 {
				return errors.New("injected mid-run failure")
			}
		}
		return nil
	}()
	if runErr == nil {
		t.Fatal("harness bug: injected failure did not surface")
	}

	// The trace must be a complete JSON document with the 41 requests'
	// spans, not a truncated or empty file.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace after mid-run error is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) < 41 {
		t.Fatalf("trace has %d events, want the full partial run", len(doc.TraceEvents))
	}

	// The CSV must parse and carry every sampled row up to the failure.
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("stats CSV after mid-run error is unreadable: %v", err)
	}
	if len(rows) != 1+sampler.Rows() || len(rows) < 10 {
		t.Fatalf("stats CSV has %d rows, want header + %d samples", len(rows), sampler.Rows())
	}
}

func TestExportsCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	var exports Exports
	calls := 0
	if err := exports.Add(filepath.Join(dir, "out.txt"), func(w io.Writer) error {
		calls++
		_, err := w.Write([]byte("done\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := exports.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exports.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("writer invoked %d times, want 1", calls)
	}
}

func TestExportsBadPathFailsFast(t *testing.T) {
	var exports Exports
	err := exports.Add(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"), func(w io.Writer) error { return nil })
	if err == nil {
		t.Fatal("Add with an uncreatable path must fail immediately")
	}
}

// TestExportsAllFilesAttempted: one failing writer must not prevent the
// other artifacts from landing.
func TestExportsAllFilesAttempted(t *testing.T) {
	dir := t.TempDir()
	var exports Exports
	if err := exports.Add(filepath.Join(dir, "bad.json"), func(io.Writer) error {
		return fmt.Errorf("render failed")
	}); err != nil {
		t.Fatal(err)
	}
	goodPath := filepath.Join(dir, "good.txt")
	if err := exports.Add(goodPath, func(w io.Writer) error {
		_, err := w.Write([]byte("ok"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := exports.Close(); err == nil || !strings.Contains(err.Error(), "render failed") {
		t.Fatalf("Close error = %v, want the render failure", err)
	}
	if got, err := os.ReadFile(goodPath); err != nil || string(got) != "ok" {
		t.Fatalf("good file not written: %q, %v", got, err)
	}
}
