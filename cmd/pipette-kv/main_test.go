package main

import "testing"

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
