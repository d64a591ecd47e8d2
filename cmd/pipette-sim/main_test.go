package main

import (
	"slices"
	"testing"
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
