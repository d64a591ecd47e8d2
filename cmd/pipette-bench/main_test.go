package main

import "testing"

func TestCheckExportOut(t *testing.T) {
	for _, tc := range []struct {
		sel, out string
		ok       bool
	}{
		{"kv,cluster", "", true},
		{"all", "", true},
		{"phases", "x.json", true},
		{"kv", "x.json", true},
		{"qdepth,faults,fig6", "x.json", true},
		{"kv,kv", "x.json", true},
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
