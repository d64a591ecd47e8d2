package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// compareMain reads two sets of -out files and prints, per workload and
// end-to-end metric, each set's median and quartiles. A median worse than
// the old one by more than the metric's bound is flagged as a regression,
// and a host metric whose spread within either set exceeds its bound as
// unresolved. It exits 1 when anything regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two sets of -out files: OLD NEW (directories or globs)")
		return 2
	}
	var sets [2]map[string][]record
	for i, pattern := range args {
		recs, err := readRecords(pattern)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i] = recs
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\told q1\told median\told q3\tn\tnew q1\tnew median\tnew q3\tchange\tbound\tverdict\t")
	regressed := false
	for _, w := range workloads {
		old, cur := sets[0][w.name], sets[1][w.name]
		if len(old) == 0 || len(cur) == 0 {
			continue
		}
		for _, s := range endToEnd {
			a, b := values(old, s.Name), values(cur, s.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(s, a, b)
			if v.label == "WORSE" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\t\n",
				w.name, s.Name, len(a), num(v.old[0]), num(v.old[1]), num(v.old[2]),
				len(b), num(v.cur[0]), num(v.cur[1]), num(v.cur[2]), 100*v.change, 100*s.Bound, v.label)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

// verdict compares two samples of one metric.
type verdict struct {
	old, cur [3]float64 // q1, median, q3
	change   float64    // new median relative to old, signed so positive is worse
	label    string     // WORSE, unresolved, better or same
}

func judge(s metricSpec, a, b []float64) verdict {
	var v verdict
	v.old[0], v.old[1], v.old[2] = quartiles(a)
	v.cur[0], v.cur[1], v.cur[2] = quartiles(b)
	v.change = ratio(v.cur[1]-v.old[1], v.old[1])
	if s.Better == "higher" {
		v.change = -v.change
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }
	switch {
	case v.change > s.Bound:
		v.label = "WORSE"
	case isHost(s.Name) && (spread(v.old) > s.Bound || spread(v.cur) > s.Bound):
		v.label = "unresolved"
	case v.change < -s.Bound:
		v.label = "better"
	default:
		v.label = "same"
	}
	return v
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readRecords loads -out files from a directory (every *.json in it) or a
// glob, grouped by workload; traced runs are skipped.
func readRecords(pattern string) (map[string][]record, error) {
	if fi, err := os.Stat(pattern); err == nil && fi.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no -out files match %s", pattern)
	}
	out := map[string][]record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}
