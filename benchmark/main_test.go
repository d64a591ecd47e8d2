package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pipette/internal/bench"
	"pipette/internal/metrics"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// tinyConfig runs w at the harness's tiny geometry with a few thousand
// requests per round.
func tinyConfig(w workloadDef, seed uint64) runConfig {
	c := runConfig{scale: bench.TinyScale(), seed: seed, requests: 3_000}
	if w.warmup > 0 {
		c.warmup = 2_000
	}
	return c
}

// simResult is everything a run simulated, without host measurements.
type simResult struct {
	lat    []uint32
	window sim.Time
	io     metrics.IO
	stages [telemetry.NumStages]sim.Time
}

func simulate(t *testing.T, w workloadDef, seed uint64) simResult {
	t.Helper()
	o, err := measure(w, tinyConfig(w, seed), 2)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return simResult{lat: o.m.lat, window: o.window, io: o.io, stages: o.stages}
}

func TestSameSeedSameSimulation(t *testing.T) {
	for _, w := range workloads {
		a, b := simulate(t, w, 7), simulate(t, w, 7)
		if !slices.Equal(a.lat, b.lat) || a.window != b.window || a.io != b.io || a.stages != b.stages {
			t.Errorf("%s: two runs with seed 7 simulated different results", w.name)
		}
		if c := simulate(t, w, 8); slices.Equal(a.lat, c.lat) {
			t.Errorf("%s: seeds 7 and 8 gave identical latencies", w.name)
		}
	}
}

func TestStreamReplaysGenerator(t *testing.T) {
	mix := workload.Mixes(1<<24, 4096, workload.Uniform, 3)[2]
	gen, err := workload.NewSynthetic(mix)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStream(mix, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if got, want := st.Next(), gen.Next(); got != want {
			t.Fatalf("request %d: replay %+v, generator %+v", i, got, want)
		}
	}
}

func TestNearestRankMatchesSort(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{1, 2, 3, 10, 999, 1000, 1001, 4096} {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = uint32(rng.Uint64n(200)) // many ties, as in the simulator
		}
		ref := slices.Clone(xs)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		m := &meter{lat: xs}
		qs := []float64{0, 0.001, 0.5, 0.9, 0.99, 0.999, 1}
		got := m.quantilesUs(qs...)
		for i, q := range qs {
			// The smallest value with at least a q share of the sample at or
			// below it, found by counting.
			want := ref[n-1]
			for _, v := range ref {
				below := 0
				for _, u := range ref {
					if u <= v {
						below++
					}
				}
				if float64(below) >= q*float64(n) {
					want = v
					break
				}
			}
			if got[i] != sim.Time(want).Micros() {
				t.Errorf("n=%d q=%g: got %gus, want %gus", n, q, got[i], sim.Time(want).Micros())
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestOpenLoopPairingMatchesHistogram(t *testing.T) {
	// engineRound fails unless the latencies the probe pairs from the
	// arrival times sum exactly to the engine histogram's total and to the
	// stage account's request time, warm-up and measured replay both.
	w, _ := findWorkload("open-mixc")
	for _, seed := range []uint64{1, 2, 3} {
		o, err := measure(w, tinyConfig(w, seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.m.lat) != 3_000 || slices.Min(o.m.lat) == 0 {
			t.Fatalf("seed %d: %d latencies, smallest %d ns", seed, len(o.m.lat), slices.Min(o.m.lat))
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "pipette/internal/nand.patternSource.fill", "pipette/internal/nand.(*Array).ReadPageInto", "pipette/internal/ftl.(*FTL).ReadInto"}, "nand"},
		{[]string{"pipette/internal/sim.(*RNG).Uint64", "pipette/internal/sim.(*Zipf).Next", "pipette/internal/workload.(*KeyChooser).Next", "pipette/internal/bench.Run"}, "bench"},
		{[]string{"pipette/internal/bitset.(*Set).Next", "pipette/internal/metrics.(*Histogram).Observe", "pipette/internal/ftl.(*FTL).gc"}, "ftl"},
		{[]string{"pipette/internal/sim.(*EventQueue).Pop", "pipette/internal/sim.(*Engine).Run", "pipette/internal/bench.RunOpenLoop"}, "sim"},
		{[]string{"runtime.mapaccess2_faststr", "pipette/internal/telemetry.(*Recorder).observe", "pipette/internal/telemetry.(*Recorder).Span", "pipette/internal/vfs.(*File).ReadAt"}, "tracer"},
		{[]string{"pipette/internal/telemetry.(*StageAccount).MarkRes", "pipette/internal/ssd.(*Controller).execRead"}, "telemetry"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.lock2", "pipette.(*KV).Get", "main.kvRound", "main.main"}, "bench"},
		{[]string{"pipette/internal/fault.(*Injector).Check", "pipette/internal/vfs.(*File).readAt"}, "vfs"},
		{nil, "gc"},
	} {
		got, _ := attribute([]sample{{stack: c.stack, count: 1, ns: 10}})
		if got[c.want] != 10 || len(got) != 1 {
			t.Errorf("%v charged as %v, want %s", c.stack, got, c.want)
		}
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = sim.Mix64(x)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byLayer, count := attribute(samples)
	var ns int64
	for _, v := range byLayer {
		ns += v
	}
	if count == 0 || ns <= 0 || x == 0 {
		t.Fatalf("%d samples, %d ns from a 300 ms busy loop", count, ns)
	}
	if _, err := decodeProfile(strings.NewReader("not a profile")); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestRunsExportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w.rounds = 2
		c := tinyConfig(w, 1)
		ms, _, err := untracedRun(w, c)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if _, err := ms.export(endToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, s := range endToEnd {
			if ms[s.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.name, s.Name, ms[s.Name])
			}
		}
		mean := ms["sim_mean_us"]
		ms, err = tracedRun(w, c, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if _, err := ms.export(perLayer); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		var stages float64
		for _, s := range stageNames {
			stages += ms["stage."+s.String()+".sim_us_per_op"]
		}
		// The KV facade's operations each span several VFS requests, so only
		// the engine workloads' stages add up to the request latency.
		if w.name != "kv-update" && math.Abs(stages-mean) > 1e-6 {
			t.Errorf("%s: stages sum to %g us/op, mean latency is %g us", w.name, stages, mean)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fine-zipf", "-trace", "2"},
		{"-workload", "fine-zipf", "-seconds", "0"},
		{"-workload", "fine-zipf", "extra"},
		{"-compare", "only-one"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), "correct") {
			t.Errorf("%v printed a result", args)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, ns float64) {
		rec := record{Workload: "fine-zipf", Metrics: map[string]metricValue{}}
		for _, s := range endToEnd {
			rec.Metrics[s.Name] = metricValue{Value: 100, Unit: s.Unit}
		}
		rec.Metrics["host_ns_per_op"] = metricValue{Value: ns, Unit: "ns"}
		if err := os.MkdirAll(filepath.Join(dir, set), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeRecord(filepath.Join(dir, set, string(rune('a'+i))+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, ns := range []float64{100, 101, 99, 100, 102} {
		write("old", i, ns)
		write("same", i, ns+0.5)
		write("slow", i, ns*1.3)
	}
	var out bytes.Buffer
	if code := compareMain([]string{filepath.Join(dir, "old"), filepath.Join(dir, "same")}, &out, &out); code != 0 {
		t.Fatalf("same code compared as a regression:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{filepath.Join(dir, "old"), filepath.Join(dir, "slow")}, &out, &out); code != 1 {
		t.Fatalf("30%% slower not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("no WORSE verdict:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metric and workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, got, w.name, w.why)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if spec.RunSeconds != 10 {
		t.Errorf("run_seconds %d: the workloads' request counts are sized for 10", spec.RunSeconds)
	}
}
