package main

import "testing"

func TestCheckCount(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{1, true},
		{2000, true},
		{0, false},
		{-5, false},
	} {
		if err := checkCount(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkCount(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
