package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"pipette/internal/baseline"
	"pipette/internal/workload"
)

func TestPoolRunsAllCells(t *testing.T) {
	t.Parallel()
	var ran int64
	var cells []Cell
	for i := 0; i < 37; i++ {
		cells = append(cells, Cell{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (*Result, error) {
				atomic.AddInt64(&ran, 1)
				return nil, nil
			},
		})
	}
	p := NewPool(8)
	if err := p.RunCells(cells); err != nil {
		t.Fatal(err)
	}
	if ran != 37 {
		t.Fatalf("ran %d cells, want 37", ran)
	}
	if got := len(p.Perf()); got != 37 {
		t.Fatalf("perf records %d, want 37", got)
	}
}

func TestPoolReturnsFirstErrorInOrder(t *testing.T) {
	t.Parallel()
	errA := errors.New("a")
	errB := errors.New("b")
	cells := []Cell{
		{Label: "ok", Run: func() (*Result, error) { return nil, nil }},
		{Label: "first", Run: func() (*Result, error) { return nil, errA }},
		{Label: "second", Run: func() (*Result, error) { return nil, errB }},
	}
	for _, p := range []*Pool{nil, NewPool(1), NewPool(4)} {
		if err := p.RunCells(cells); !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want %v", p.Workers(), err, errA)
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	t.Parallel()
	var order []int
	var cells []Cell
	for i := 0; i < 5; i++ {
		i := i
		cells = append(cells, Cell{
			Label: fmt.Sprintf("c%d", i),
			Run: func() (*Result, error) {
				order = append(order, i) // no locking: serial execution is the contract
				return nil, nil
			},
		})
	}
	var p *Pool
	if err := p.RunCells(cells); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not serial", order)
		}
	}
}

// TestParallelDeterminism is the harness's core correctness property under
// the worker pool: the same seed and suite produce byte-identical output at
// -j 1 and -j 8. Where the golden file holds, the -j 8 run is compared with
// it, as TestTinySuiteGolden compares the -j 1 run; elsewhere the two runs
// are compared with each other.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full harness passes")
	}
	t.Parallel()
	var parallel bytes.Buffer
	if err := RunAll(&parallel, TinyScale(), NewPool(8)); err != nil {
		t.Fatal(err)
	}
	if goldenHolds() {
		want, err := os.ReadFile("testdata/tiny-suite.golden")
		if err != nil {
			t.Fatal(err)
		}
		requireSameOutput(t, "-j 8", parallel.Bytes(), "golden", want)
		return
	}
	serial, err := tinySerialRunAll()
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutput(t, "-j 8", parallel.Bytes(), "-j 1", serial)
}

// TestExperimentDeterminism covers single experiments at different worker
// counts, cheap enough to run in -short mode.
func TestExperimentDeterminism(t *testing.T) {
	t.Parallel()
	exp, err := Find("fig8")
	if err != nil {
		t.Fatal(err)
	}
	s := TinyScale()
	var a, b bytes.Buffer
	if err := exp.Run(&a, s, nil); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(&b, s, NewPool(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fig8 output differs between serial and -j 8:\n--- serial\n%s\n--- parallel\n%s", a.String(), b.String())
	}
}

// --- hot-path microbenchmarks ---------------------------------------------
// Track these with `go test -bench 'BenchmarkRun' -benchmem ./internal/bench`
// and compare revisions with benchstat.

// benchmarkRun replays b.N requests of Table 1 mix (0 = A ... 4 = E),
// uniform at tiny scale, on engine idx built over cfg.
func benchmarkRun(b *testing.B, idx int, cfg baseline.StackConfig, mix int, opts RunOpts) {
	b.Helper()
	s := TinyScale()
	e, err := newEngine(idx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewSynthetic(workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[mix])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(e, gen, b.N, opts); err != nil {
		b.Fatal(err)
	}
}

func benchmarkRunEngine(b *testing.B, idx int) {
	s := TinyScale()
	benchmarkRun(b, idx, s.stackConfig(s.FileSize()), 4, RunOpts{}) // E: all fine reads
}

// BenchmarkRunPipette measures per-request cost of the full harness loop on
// the Pipette engine (mix E: byte-granular reads).
func BenchmarkRunPipette(b *testing.B) { benchmarkRunEngine(b, 4) }

// BenchmarkRunBlockIO measures per-request cost on the conventional block
// engine.
func BenchmarkRunBlockIO(b *testing.B) { benchmarkRunEngine(b, 0) }

// BenchmarkRunOpenLoop measures per-request cost of an open-loop replay in
// the benchmark's open-mixc shape: Pipette with contention on, mix C,
// Poisson arrivals at 200k ops/s (about two thirds of the ~290k ops/s this
// stack saturates at, depth 16) and depth 16.
func BenchmarkRunOpenLoop(b *testing.B) {
	const rate = 200_000
	arr, err := workload.NewPoisson(rate, 0xa221)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkRun(b, 4, qdepthConfig(TinyScale()), 2, RunOpts{Arrivals: arr, Depth: 16, Offered: rate})
}

// TestPoolRecordsRunsOfFailedBatch: with the export on, a batch's run
// records keep cell order, and a failed batch still keeps the cells that
// finished, so the caller's partial bundle flushes them.
func TestPoolRecordsRunsOfFailedBatch(t *testing.T) {
	t.Parallel()
	errFail := errors.New("fail")
	cell := func(name string, err error) Cell {
		return Cell{Label: name, Run: func() (*Result, error) {
			if err != nil {
				return nil, err
			}
			return &Result{Name: name}, nil
		}}
	}
	cells := []Cell{cell("a", nil), cell("b", errFail), cell("c", nil)}
	for _, tc := range []struct {
		workers int
		want    string
	}{{1, "a"}, {4, "a,c"}} {
		p := NewPool(tc.workers)
		p.SetTelemetry(TelemetryOpts{ExportOut: "bundle.json"})
		if err := p.RunCells(cells); !errors.Is(err, errFail) {
			t.Fatalf("-j %d: err = %v, want %v", tc.workers, err, errFail)
		}
		var names []string
		for _, r := range p.Runs() {
			names = append(names, r.Name)
		}
		if got := strings.Join(names, ","); got != tc.want {
			t.Errorf("-j %d: recorded runs %q, want %q", tc.workers, got, tc.want)
		}
	}
}
