package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pipette/internal/sim"
)

// TestTinySuiteGolden renders the whole suite at tiny scale and compares it
// with testdata/tiny-suite.golden byte for byte. The perf gate compares
// only the phases, kv, faults, qdepth and cluster cells; this test also
// pins synthetic-uniform, synthetic-zipfian, latency, apps, ablation and
// sensitivity, so a refactor that moves any simulated number fails here.
//
// Regenerating the file is a deliberate output change, like regenerating
// BENCH_baseline.json: do it only when a change means to move a number,
// and say which numbers moved and why. From the repository root:
//
//	go run ./cmd/pipette-bench -exp all -scale tiny -j 2 | sed '$d' > internal/bench/testdata/tiny-suite.golden
//
// (sed drops the trailing wall-time line, which RunAll does not print.)
func TestTinySuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass")
	}
	// ROADMAP item 12: arm64 may fuse x*y+z into one rounding, so its
	// output is not yet bit-identical to the amd64 file.
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden output holds for amd64 and 386, not %s", runtime.GOARCH)
	}
	t.Parallel()
	want, err := os.ReadFile("testdata/tiny-suite.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAll(&got, TinyScale(), NewPool(2)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

// TestPhasesExportsGolden pins the tiny-scale phases experiment's
// -trace-out and -stats-out files by SHA-256: the Chrome trace of the
// Pipette engine (every span, in order) and its sampled series CSV (every
// column, in order), at the CLI's default 1 ms interval. Regenerate the
// sums only on a deliberate output change, with
//
//	go run ./cmd/pipette-bench -exp phases -scale tiny -trace-out t.json -stats-out s.csv
//	sha256sum t.json s.csv
func TestPhasesExportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full phases pass")
	}
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden output holds for amd64 and 386, not %s", runtime.GOARCH)
	}
	t.Parallel()
	dir := t.TempDir()
	trace, stats := filepath.Join(dir, "trace.json"), filepath.Join(dir, "stats.csv")
	p := NewPool(2)
	p.SetTelemetry(TelemetryOpts{TraceOut: trace, StatsOut: stats, StatsInterval: sim.Millisecond})
	var out bytes.Buffer
	if err := writePhases(&out, TinyScale(), p); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, sum string }{
		{trace, "66b0e4be92d2c9869c6ca56c95f746f0e3bca2843bc683fc4bc3f272e07b5317"},
		{stats, "bc55c3491c0006a8841cc5e0df9cea10b18b6f06c437ecd395b6dad1209052e4"},
	} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != f.sum {
			t.Errorf("%s: sha256 %x, want %s", filepath.Base(f.path), sum, f.sum)
		}
	}
}
