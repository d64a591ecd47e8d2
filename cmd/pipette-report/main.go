// Command pipette-report renders run-export bundles — the JSON written by
// pipette-sim -export and pipette-bench -export-out — into one
// self-contained HTML run report: latency percentile tables, a per-run
// stage waterfall (where each request's virtual time went, stage by
// stage), tail-exemplar waterfalls with per-resource blame, time × latency
// heatmaps, and per-resource occupancy heatmaps (NAND channels and dies,
// the PCIe DMA link, the NVMe ring).
//
// With -diff it compares two runs instead of rendering one: either two
// run exports or two bench suite summaries (BENCH_<rev>.json). Every
// metric's delta is printed as a table on stdout. The comparison is the
// perf gate's own (report.Match): rows beyond the tolerance band are
// flagged, and they or a run or cell missing from the new file make the
// command exit 1. A file diffed against itself reports zero changes and
// exits 0.
//
// The output is fully deterministic: it embeds no wall-clock content and
// formats every number with fixed precision, so identical runs produce
// byte-identical HTML — reports can be diffed across commits and archived
// as CI artifacts.
//
// Usage:
//
//	pipette-report -o report.html run.json
//	pipette-report -o report.html -title "nightly quick run" phases.json sim.json
//	pipette-report -o - run.json > report.html
//	pipette-report -diff old.json new.json
//	pipette-report -diff -tol 0.05 -o diff.html BENCH_baseline.json BENCH_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/report"
)

func main() {
	var (
		out     = flag.String("o", "report.html", "output HTML file; '-' for stdout")
		title   = flag.String("title", "Pipette run report", "report title")
		diff    = flag.Bool("diff", false, "compare two exports or bench summaries: -diff old.json new.json")
		tol     = flag.Float64("tol", report.DefaultTolerance, "relative tolerance band for -diff highlighting")
		version = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	code := 0
	switch {
	case *version:
		buildinfo.Fprint(os.Stdout, "pipette-report")
	case *diff:
		htmlOut := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				htmlOut = *out
			}
		})
		code = runDiff(flag.Args(), *tol, htmlOut, *title, os.Stdout, os.Stderr)
	default:
		code = render(flag.Args(), *out, *title)
	}
	os.Exit(code)
}

// render writes the HTML run report for the export files at paths and
// returns the exit code: 0 on success, 2 without files, 1 on errors.
func render(paths []string, out, title string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "pipette-report: no export files given (write them with pipette-sim -export or pipette-bench -export-out)")
		return 2
	}
	exports := make([]*report.Export, 0, len(paths))
	runs := 0
	for _, path := range paths {
		e, err := report.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-report: %v\n", err)
			return 1
		}
		exports = append(exports, e)
		runs += len(e.Runs)
	}
	write := func(w io.Writer) error { return report.WriteHTML(w, title, exports) }
	if out == "-" {
		if err := write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-report: %v\n", err)
			return 1
		}
		return 0
	}
	if err := writeFile(out, write); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-report: %v\n", err)
		return 1
	}
	fmt.Printf("report written to %s (%d runs)\n", out, runs)
	return 0
}

// writeFile creates path and fills it with write, reporting the first
// error including the close's.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// diffInput is one -diff operand: a bench suite summary or a run export.
type diffInput struct {
	kind string // "summary" or "export"
	sum  *bench.Summary
	exp  *report.Export
}

// readDiffInput reads path once, sniffs whether it holds a bench suite
// summary ("cells") or a run export ("runs"), and decodes it as that.
func readDiffInput(path string) (*diffInput, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	in := &diffInput{}
	var into any
	if _, ok := probe["cells"]; ok {
		in.kind, in.sum = "summary", &bench.Summary{}
		into = in.sum
	} else if _, ok := probe["runs"]; ok {
		in.kind, in.exp = "export", &report.Export{}
		into = in.exp
	} else {
		return nil, fmt.Errorf("%s: neither a bench summary (no \"cells\") nor a run export (no \"runs\")", path)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}

// runDiff compares two files of the same kind and returns the exit code:
// 0 when every metric stays inside the tolerance band and nothing is
// missing from the new file, 1 otherwise, 2 on usage or read errors.
func runDiff(args []string, tol float64, out, title string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pipette-report: %v\n", err)
		return 2
	}
	if len(args) != 2 {
		return fail(fmt.Errorf("-diff needs exactly two files: old.json new.json"))
	}
	if err := report.CheckTolerance(tol); err != nil {
		return fail(fmt.Errorf("-tol: %w", err))
	}
	old, err := readDiffInput(args[0])
	if err != nil {
		return fail(err)
	}
	cur, err := readDiffInput(args[1])
	if err != nil {
		return fail(err)
	}
	if old.kind != cur.kind {
		return fail(fmt.Errorf("cannot diff a %s against a %s", old.kind, cur.kind))
	}

	var d *report.Diff
	if old.kind == "summary" {
		if d, err = bench.Compare(cur.sum, old.sum, tol); err != nil {
			return fail(err)
		}
	} else {
		d = report.DiffExports(old.exp, cur.exp, tol)
	}
	if err := d.WriteText(stdout); err != nil {
		return fail(err)
	}
	if out != "" && out != "-" {
		if err := writeFile(out, func(w io.Writer) error { return d.WriteHTML(w, title) }); err != nil {
			return fail(err)
		}
	}
	if d.Failures() > 0 {
		return 1
	}
	return 0
}
