package main

import (
	"slices"
	"testing"
	"time"

	"pipette/internal/sim"
)

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
