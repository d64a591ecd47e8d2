package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
