package main

import (
	"math"
	"testing"
)

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
