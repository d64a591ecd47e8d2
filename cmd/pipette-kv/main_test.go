package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipette/internal/telemetry"
)

// TestOutputGolden pins the stdout of two small runs: one whose reads
// reach flash through the LSM index, and one under a fault profile that
// loses operations while every other read is still verified.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"flash-lsm.golden", []string{"-records", "10000", "-ops", "3000", "-workload", "A,E", "-index", "lsm", "-pagecache", "1", "-finecache", "1"}},
		{"faults.golden", []string{"-records", "10000", "-ops", "3000", "-workload", "A,C", "-pagecache", "1", "-finecache", "1", "-fault-profile", "nand.read:0.5"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %q: exit %d (stderr: %s)", tc.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("stdout of %q differs from testdata/%s:\n%s", tc.args, tc.golden, stdout.String())
		}
	}
}

// TestFlightDumpAfterCleanRun: a run with no anomaly still leaves a
// valid dump, with the end-of-run reason.
func TestFlightDumpAfterCleanRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-records", "500", "-ops", "500", "-workload", "A,C", "-flight-dump", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
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

// TestUsageErrorsExitTwo drives the command: every usage error exits 2
// before any output, and before -flight-dump creates its file.
func TestUsageErrorsExitTwo(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-ops", "0"}, 2},
		{[]string{"-values", "-1"}, 2},
		{[]string{"-skew", "1"}, 2},
		{[]string{"-shards", "2", "-skew", "-0.5"}, 2},
		{[]string{"-fault-profile", "nand.read:often"}, 2},
		{[]string{"-shards", "2", "-flight-dump", dump}, 2},
		{[]string{"-records", "200", "-ops", "200", "-workload", "A,Z"}, 2},
		{[]string{"-index", "foo"}, 2},
		{[]string{"-records", "0"}, 2},
		{[]string{"-workload", " , "}, 2},
		{[]string{"-finecache", "0"}, 2},
		{[]string{"-pagecache", "-1"}, 2},
		{[]string{"-records", "200", "-ops", "200", "-workload", "C", "-capacity", "64"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("run %q: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
		if tc.code != 0 && stdout.Len() > 0 {
			t.Errorf("run %q printed a report before failing:\n%s", tc.args, stdout.String())
		}
		if tc.code == 0 && !strings.Contains(stdout.String(), "system report:") {
			t.Errorf("run %q: no system report in\n%s", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(dump); !os.IsNotExist(err) {
		t.Errorf("-flight-dump with -shards created %s (stat: %v)", dump, err)
	}
}

func TestCheckOps(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{1, true},
		{100000, true},
		{0, false},
		{-3, false},
	} {
		if err := checkOps(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkOps(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

func TestCheckValues(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{0, true},
		{64, true},
		{-1, false},
		{-5, false},
	} {
		if err := checkValues(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkValues(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

func TestCheckSkew(t *testing.T) {
	for _, tc := range []struct {
		theta float64
		ok    bool
	}{
		{0, true},
		{0.99, true},
		{-0.5, false},
		{1, false},
		{1.2, false},
		{math.NaN(), false},
	} {
		if err := checkSkew(tc.theta); (err == nil) != tc.ok {
			t.Errorf("checkSkew(%v) = %v, want ok=%v", tc.theta, err, tc.ok)
		}
	}
}
