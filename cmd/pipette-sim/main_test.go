package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"pipette/internal/bench"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/trace"
)

// TestClosedLoopGolden pins the stdout of a small fault-free closed-loop
// run of two workloads on two workers, one with writes: the report, the
// stage waterfall, the resource table and the throughput of each.
func TestClosedLoopGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "closed-loop.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := []string{"-workload", "mixC,socialgraph", "-requests", "3000", "-file-mb", "16", "-pagecache", "4", "-j", "2"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stdout differs from testdata/closed-loop.golden:\n%s", out.String())
	}
}

// TestFlightDumpAfterCleanRun: a run with no anomaly still leaves a
// valid dump, with the end-of-run reason.
func TestFlightDumpAfterCleanRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var out bytes.Buffer
	args := []string{"-workload", "mixC", "-requests", "500", "-file-mb", "1", "-pagecache", "1", "-finecache", "1", "-flight-dump", path}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Reason   string `json:"reason"`
		Captured int    `json:"captured"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("flight dump is not JSON: %v (%d bytes)", err, len(raw))
	}
	if d.Reason != telemetry.EndOfRun || d.Captured == 0 {
		t.Errorf("flight dump reason %q with %d events, want %q with some", d.Reason, d.Captured, telemetry.EndOfRun)
	}
}

// TestTraceReplayMatchesGenerator records a generator's requests and
// replays the trace as a trace:PATH workload: the measurement must equal a
// direct bench.Run of the same generator on the same engine, names aside.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	const n = 3000
	r := &replayer{dist: "uniform", requests: n, fileMB: 8, pcMB: 1, fgMB: 1, fine: true, seed: 9, arrivals: "closed"}
	gen, err := r.generator("socialgraph")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sg.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(f, gen, n); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := r.replay(io.Discard, "trace", "trace:"+path)
	if err != nil {
		t.Fatal(err)
	}

	replayed, err := r.generator("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.engine(replayed.FileSize(), false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := r.generator("socialgraph")
	if err != nil {
		t.Fatal(err)
	}
	want, err := bench.Run(e, fresh, n, bench.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshot.IO.Writes == 0 {
		t.Fatal("the trace replays no writes")
	}
	got.Name, got.Workload = "", ""
	want.Name, want.Workload = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace replay differs from the generator's:\n got %+v\nwant %+v", got.Snapshot, want.Snapshot)
	}
}

func TestCheckRequests(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{1, true},
		{20000, true},
		{0, false},
		{-5, false},
	} {
		if err := checkRequests(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkRequests(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

// TestQueueDepthFlag runs the command with -qd values: below 1 is a usage
// error before any simulation, and 1 replays. A -pagecache or -finecache
// below 1 MiB is a usage error too.
func TestQueueDepthFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-arrivals", "poisson", "-qd", "-3"}, 2},
		{[]string{"-arrivals", "bursty", "-qd", "0"}, 2},
		{[]string{"-qd", "0"}, 2},
		{[]string{"-arrivals", "poisson", "-qd", "1", "-requests", "50", "-file-mb", "1", "-pagecache", "1", "-finecache", "1"}, 0},
		{[]string{"-finecache", "0"}, 2},
		{[]string{"-pagecache", "0"}, 2},
		{[]string{"-pagecache", "-4", "-finecache", "1"}, 2},
		{[]string{"-fine=false", "-finecache", "0"}, 2},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.code {
			t.Errorf("run %q: exit %d, want %d", tc.args, code, tc.code)
		}
		if tc.code != 0 && out.Len() > 0 {
			t.Errorf("run %q printed a report before failing:\n%s", tc.args, out.String())
		}
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
	}{
		{"mixA", []string{"mixA"}},
		{"mixA ", []string{"mixA"}},
		{" mixA,mixE", []string{"mixA", "mixE"}},
		{"mixA ,mixE", []string{"mixA", "mixE"}},
	} {
		if got := workloadNames(tc.list); !slices.Equal(got, tc.want) {
			t.Errorf("workloadNames(%q) = %q, want %q", tc.list, got, tc.want)
		}
	}
}

func TestStatsInterval(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want sim.Time
		ok   bool
	}{
		{time.Millisecond, sim.Millisecond, true},
		{500 * time.Microsecond, 500 * sim.Microsecond, true},
		{0, 0, false},
		{-3 * time.Millisecond, 0, false},
	} {
		got, err := statsInterval(tc.d)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("statsInterval(%v) = %v, %v; want %v, ok=%v", tc.d, got, err, tc.want, tc.ok)
		}
	}
}
