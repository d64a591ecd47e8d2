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
