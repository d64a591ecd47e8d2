package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipette/internal/buildinfo"
	"pipette/internal/fault"
	"pipette/internal/report"
	"pipette/internal/workload"
)

// TestRunCapturesStagesAndResources checks that every cell measurement
// carries the per-stage attribution and the resource occupancy, that the
// attribution conserves (stage sum == summed end-to-end latencies), and
// that the NAND channels and the DMA link saw traffic.
func TestRunCapturesStagesAndResources(t *testing.T) {
	s := TinyScale()
	e, err := newEngine(4, s.stackConfig(s.FileSize())) // Pipette
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[2]
	gen, err := workload.NewSynthetic(mix)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, gen, 500, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.Requests == 0 {
		t.Fatal("stage account saw no requests")
	}
	if res.Stages.Sum() != res.Stages.Elapsed {
		t.Fatalf("stage sum %v != elapsed %v: conservation broken", res.Stages.Sum(), res.Stages.Elapsed)
	}
	if res.Resources == nil || len(res.Resources.Resources) == 0 {
		t.Fatal("no resource snapshot captured")
	}
	var nand, dma int64
	for _, r := range res.Resources.Resources {
		switch {
		case strings.HasPrefix(r.Name, "nand.ch"):
			nand += r.BusyNs
		case r.Name == "pcie.dma":
			dma = r.BusyNs
		}
	}
	if nand == 0 || dma == 0 {
		t.Fatalf("resource occupancy not recorded: nand=%d dma=%d", nand, dma)
	}

	run := ExportRun(res)
	var sum int64
	for _, row := range run.Stages {
		sum += row.TotalNs
	}
	if sum != run.StageNs {
		t.Fatalf("export stage rows sum to %d, StageNs is %d", sum, run.StageNs)
	}
}

// TestRunTailExemplarsConserve checks the single-device tail capture with
// the fault-retry path armed: a read-disturb profile inflates raw bit
// errors so requests traverse ECC retries and the block-path fallback,
// and every captured exemplar's segments must still partition
// [start, end] exactly. The tail recorder hangs off the stage account so
// it observes every finished request, lost ones included; the heatmap
// records completions only, so its total is the goodput.
func TestRunTailExemplarsConserve(t *testing.T) {
	s := TinyScale()
	prof, err := fault.ParseProfile("nand.read:rber*20")
	if err != nil {
		t.Fatal(err)
	}
	s.Fault = prof
	e, err := newEngine(4, s.stackConfig(s.FileSize())) // Pipette
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[2]
	gen, err := workload.NewSynthetic(mix)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 500
	res, err := Run(e, gen, requests, RunOpts{TolerateMediaErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatal("rber*20 profile injected no uncorrectable reads; fault path not exercised")
	}
	if res.Tail == nil || len(res.Tail.TopK) == 0 {
		t.Fatal("no tail exemplars captured")
	}
	if res.Tail.Observed != requests {
		t.Fatalf("tail observed %d, want %d", res.Tail.Observed, requests)
	}
	for _, ex := range res.Tail.TopK {
		at := ex.Start
		for _, seg := range ex.Segs {
			if seg.Start != at {
				t.Fatalf("exemplar seq %d: blame gap at %v (segment starts %v)", ex.Seq, at, seg.Start)
			}
			at = seg.End
		}
		if at != ex.End {
			t.Fatalf("exemplar seq %d: segments end at %v, request ends at %v", ex.Seq, at, ex.End)
		}
	}
	if res.Heat == nil || res.Heat.Total != requests-res.Lost {
		t.Fatalf("heatmap total %+v, want %d completions", res.Heat, requests-res.Lost)
	}
	// The export carries the same material with the same conservation.
	run := ExportRun(res)
	if len(run.Exemplars) != len(res.Tail.TopK) || run.TailKept != res.Tail.Kept {
		t.Fatalf("export lost exemplars: %d vs %d", len(run.Exemplars), len(res.Tail.TopK))
	}
	for _, ex := range run.Exemplars {
		at := ex.StartNs
		for _, sp := range ex.Spans {
			if sp.StartNs != at {
				t.Fatalf("export exemplar seq %d: gap at %d", ex.Seq, at)
			}
			at = sp.EndNs
		}
		if us := float64(at-ex.StartNs) / 1e3; us != ex.LatencyUs {
			t.Fatalf("export exemplar seq %d: spans cover %.3fus, latency says %.3fus", ex.Seq, us, ex.LatencyUs)
		}
	}
}

// exportAcrossWorkers runs one experiment through its Run entry point at
// each worker count with run recording on, writes the pool's runs as the
// pipette-bench bundle, and renders that bundle to HTML the way
// pipette-report does. It requires stdout, bundle and HTML to be
// byte-identical across the counts — the report pipeline must not leak
// scheduling order anywhere — and returns them with the bundle's runs.
func exportAcrossWorkers(t *testing.T, id string, s Scale, workers ...int) (out, bundle, html string, runs []report.Run) {
	t.Helper()
	exp, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), id+".json")
	for i, j := range workers {
		p := NewPool(j)
		p.SetTelemetry(TelemetryOpts{ExportOut: path})
		var w bytes.Buffer
		if err := exp.Run(&w, s, p); err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		b := &report.Export{Tool: "pipette-bench " + id, Version: buildinfo.Version, Scale: s.Name, Runs: p.Runs()}
		var raw bytes.Buffer
		if err := b.WriteJSON(&raw); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := report.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var h bytes.Buffer
		if err := report.WriteHTML(&h, id, []*report.Export{back}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			out, bundle, html, runs = w.String(), raw.String(), h.String(), b.Runs
			continue
		}
		if w.String() != out {
			t.Errorf("%s stdout differs between -j %d and -j %d", id, workers[0], j)
		}
		if raw.String() != bundle {
			t.Errorf("%s export bundle differs between -j %d and -j %d", id, workers[0], j)
		}
		if h.String() != html {
			t.Errorf("%s rendered HTML differs between -j %d and -j %d", id, workers[0], j)
		}
	}
	return out, bundle, html, runs
}

// TestPhaseExportDeterministicAcrossWorkers runs the phases experiment at
// -j 1 and -j 2 and requires the stdout tables, the export bundle, and the
// rendered HTML to be byte-identical.
func TestPhaseExportDeterministicAcrossWorkers(t *testing.T) {
	out, _, _, _ := exportAcrossWorkers(t, "phases", TinyScale(), 1, 2)
	if !strings.Contains(out, "stage waterfall") || !strings.Contains(out, "resource utilization") {
		t.Error("phases output misses the waterfall/utilization tables")
	}
}

// TestFaultsExport: the faults sweep, which had no export path of its own,
// writes one run per cell through the pool, byte-identical at -j 1 and
// -j 2, each carrying the lost-request count of its fault level.
func TestFaultsExport(t *testing.T) {
	s := TinyScale()
	_, _, _, runs := exportAcrossWorkers(t, "faults", s, 1, 2)
	if want := 2 * len(FaultLevels) * len(faultEngineIdx); len(runs) != want {
		t.Fatalf("bundle holds %d runs, want one per cell (%d)", len(runs), want)
	}
	seen := make(map[string]bool)
	var lost uint64
	for _, r := range runs {
		key := r.Name + " " + r.Workload
		if seen[key] {
			t.Errorf("run %q recorded twice", key)
		}
		seen[key] = true
		lost += r.Lost
	}
	if lost == 0 {
		t.Error("no run records the requests the injected faults lost")
	}
}
