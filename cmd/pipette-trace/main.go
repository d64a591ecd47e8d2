// Command pipette-trace generates and inspects workload traces, and prints
// the tail exemplars of a run export. pipette-sim replays a trace as the
// workload trace:PATH.
//
// Usage:
//
//	pipette-trace gen -workload mixD -dist zipfian -n 100000 -o trace.bin
//	pipette-trace info trace.bin
//	pipette-sim -workload trace:trace.bin
//	pipette-trace tail export.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pipette/internal/buildinfo"
	"pipette/internal/report"
	"pipette/internal/trace"
	"pipette/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	case "version", "-version", "--version":
		buildinfo.Fprint(os.Stdout, "pipette-trace")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipette-trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pipette-trace gen|info|tail|version [flags] [file]")
	os.Exit(2)
}

// cmdTail prints the tail exemplars captured in a run-export bundle: per
// run, the blame composition over the kept slow set and an ASCII
// waterfall of each top-K exemplar's critical-path spans.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	width := fs.Int("width", 60, "waterfall bar width in characters")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("tail needs a run-export JSON file (pipette-bench -export-out)")
	}
	exp, err := report.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	shown := 0
	for _, r := range exp.Runs {
		if len(r.Exemplars) == 0 && len(r.TailBlame) == 0 {
			continue
		}
		shown++
		fmt.Printf("== %s ==\n", r.Name)
		if len(r.TailBlame) > 0 {
			fmt.Printf("tail blame (slowest %d of %d requests):\n", r.TailKept, r.Requests)
			fmt.Printf("  %-10s %-14s %12s %7s\n", "stage", "resource", "total ms", "share")
			for _, b := range r.TailBlame {
				res := b.Res
				if res == "" {
					res = "-"
				}
				fmt.Printf("  %-10s %-14s %12.3f %6.1f%%\n", b.Stage, res, float64(b.TotalNs)/1e6, b.SharePct)
			}
		}
		for i, ex := range r.Exemplars {
			fmt.Printf("#%d seq=%d start=%.3fms latency=%.2fus\n",
				i+1, ex.Seq, float64(ex.StartNs)/1e6, ex.LatencyUs)
			total := ex.LatencyUs * 1e3 // ns
			if total <= 0 {
				continue
			}
			for _, sp := range ex.Spans {
				dur := sp.EndNs - sp.StartNs
				n := int(float64(*width) * float64(dur) / total)
				if n < 1 {
					n = 1
				}
				off := int(float64(*width) * float64(sp.StartNs-ex.StartNs) / total)
				if off+n > *width {
					off = *width - n
					if off < 0 {
						off = 0
					}
				}
				label := sp.Stage
				if sp.Res != "" {
					label += "@" + sp.Res
				}
				fmt.Printf("  %s%s%s %-26s %9.2fus\n",
					strings.Repeat(" ", off), strings.Repeat("#", n),
					strings.Repeat(" ", *width-off-n), label, float64(dur)/1e3)
			}
		}
		fmt.Println()
	}
	if shown == 0 {
		fmt.Println("no tail exemplars in export (runs predate tail capture, or none were collected)")
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	wl := fs.String("workload", "mixE", "mixA..mixE, recommender, socialgraph, searchengine")
	dist := fs.String("dist", "uniform", "uniform or zipfian")
	n := fs.Int("n", 100_000, "requests to generate")
	fileMB := fs.Int64("file-mb", 128, "dataset size (MiB)")
	seed := fs.Uint64("seed", 42, "seed")
	out := fs.String("o", "trace.bin", "output file")
	_ = fs.Parse(args)

	if err := checkCount(*n); err != nil {
		return err
	}
	gen, err := workload.ByName(*wl, *dist, *fileMB<<20, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Record(f, gen, *n); err != nil {
		return err
	}
	fmt.Printf("wrote %d requests of %s to %s (dataset %.1f MiB)\n",
		*n, gen.Name(), *out, float64(gen.FileSize())/(1<<20))
	return nil
}

// checkCount rejects a gen -n below 1: a trace of no requests replays
// nothing.
func checkCount(n int) error {
	if n < 1 {
		return fmt.Errorf("gen -n %d: need at least 1", n)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs a trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	reqs, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	s := trace.Summarize(reqs)
	fmt.Printf("%s: %d requests, %.1f MiB requested, extent %.1f MiB, %d distinct sizes\n",
		fs.Arg(0), s.Requests, float64(s.Bytes)/(1<<20), float64(s.Extent)/(1<<20), s.Distinct)
	fmt.Printf("%-6s %10s %12s %10s %10s %10s\n", "op", "count", "bytes", "size p50", "size p99", "size max")
	for _, op := range s.Ops {
		fmt.Printf("%-6s %10d %12d %10d %10d %10d\n", op.Op, op.Count, op.Bytes, op.P50, op.P99, op.Max)
	}
	return nil
}
