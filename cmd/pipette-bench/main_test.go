package main

import (
	"math"
	"testing"
	"time"

	"pipette/internal/report"
	"pipette/internal/sim"
)

func TestCheckExportOut(t *testing.T) {
	for _, tc := range []struct {
		sel, out string
		ok       bool
	}{
		{"kv,cluster", "", true},
		{"all", "", true},
		{"phases", "x.json", true},
		{"kv", "x.json", true},
		{"qdepth,faults,fig6", "x.json", false},
		{"kv,kv", "x.json", false},
		{"kv,cluster", "x.json", false},
		{"phases, qdepth", "x.json", false},
		{"all", "x.json", false},
		{"faults,kv,cluster", "x.json", false},
		{"nosuch", "x.json", true},
	} {
		if err := checkExportOut(tc.sel, tc.out); (err == nil) != tc.ok {
			t.Errorf("checkExportOut(%q, %q) = %v, want ok=%v", tc.sel, tc.out, err, tc.ok)
		}
	}
}

func TestCheckTraceOut(t *testing.T) {
	for _, tc := range []struct {
		sel, trace, stats string
		ok                bool
	}{
		{"ablation", "", "", true},
		{"phases", "t.json", "s.csv", true},
		{"all", "t.json", "", true},
		{"kv, breakdown", "", "s.csv", true},
		{"ablation", "t.json", "", false},
		{"ablation", "", "s.csv", false},
		{"kv,faults,qdepth,cluster", "t.json", "s.csv", false},
		{"nosuch", "t.json", "", false},
	} {
		if err := checkTraceOut(tc.sel, tc.trace, tc.stats); (err == nil) != tc.ok {
			t.Errorf("checkTraceOut(%q, %q, %q) = %v, want ok=%v", tc.sel, tc.trace, tc.stats, err, tc.ok)
		}
	}
}

func TestGateTolerance(t *testing.T) {
	for _, tc := range []struct {
		in, want float64
		ok       bool
	}{
		{0, report.DefaultTolerance, true},
		{0.25, 0.25, true},
		{-0.5, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		got, err := gateTolerance(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("gateTolerance(%g) = %g, %v; want %g, ok=%v", tc.in, got, err, tc.want, tc.ok)
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
