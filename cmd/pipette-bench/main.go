// Command pipette-bench regenerates the tables and figures of the paper's
// evaluation (DAC'22, §4) from the simulator, plus ablation sweeps.
//
// Usage:
//
//	pipette-bench -list
//	pipette-bench -exp all -scale quick
//	pipette-bench -exp fig6               # or table2, fig8, apps, ...
//	pipette-bench -exp phases,kv,faults   # comma-separated selection
//	pipette-bench -exp qdepth             # open-loop saturation sweep
//	pipette-bench -exp qdepth -export-out qd.json  # curves for pipette-report
//	pipette-bench -exp cluster            # sharded serving tier sweep
//	pipette-bench -exp cluster -shards 8 -replicas 1,3 -tenants 4 -skew 0,0.99
//	pipette-bench -exp apps -scale full   # paper-scale (slow)
//	pipette-bench -exp all -j 8           # parallel cells, identical output
//	pipette-bench -exp all -json BENCH_quick.json
//	pipette-bench -exp all -listen :9100  # live /metrics /healthz /progress
//	pipette-bench -exp phases,kv,faults -scale tiny -baseline BENCH_baseline.json -compare
//	pipette-bench -exp fig6 -cpuprofile cpu.out
//	pipette-bench -exp faults -flight-dump flight.json
//	pipette-bench -exp phases -trace-out trace.json -stats-out stats.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/fault"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

func main() {
	var (
		expName   = flag.String("exp", "all", "experiment ids or paper artifacts, comma-separated (fig6, table2, ... ; 'all')")
		scaleName = flag.String("scale", "quick", "experiment scale: tiny, quick, or full")
		workers   = flag.Int("j", 0, "worker goroutines for the experiment cells (0 = GOMAXPROCS)")
		list      = flag.Bool("list", false, "list experiments and exit")
		version   = flag.Bool("version", false, "print build identity and exit")
		listen    = flag.String("listen", "", "serve live /metrics, /healthz, and /progress on this address (e.g. :9100)")
		jsonOut   = flag.String("json", "", "write the machine-readable perf summary (regression-gate format) to this file; '-' for stdout")
		baseline  = flag.String("baseline", "", "compare the run's perf summary against this committed baseline JSON")
		compare   = flag.Bool("compare", false, "with -baseline: exit non-zero when any cell regresses past tolerance")
		tolerance = flag.Float64("tolerance", 0, "override every tolerance band with this relative fraction (0 = defaults)")
		rev       = flag.String("rev", "", "revision stamped into the perf summary (default: build version)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		traceOut  = flag.String("trace-out", "", "phases experiment: write Chrome trace-event JSON (open in Perfetto)")
		statsOut  = flag.String("stats-out", "", "phases experiment: write sampled time-series CSV")
		exportOut = flag.String("export-out", "", "phases, qdepth, kv or cluster experiment (one per run): write the run-export bundle JSON (pipette-report input)")
		statsInt  = flag.Duration("stats-interval", time.Millisecond, "virtual-time sampling interval for -stats-out")
		faultProf = flag.String("fault-profile", "", "arm fault injection on every engine: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
		flightOut = flag.String("flight-dump", "", "arm a shared flight recorder on every engine; a panicking cell or fatal error dumps the recent-event ring to this file as JSON")
		faultSeed = flag.Uint64("fault-seed", 0x5eed, "seed for the fault injector's per-site decision streams")
		shards    = flag.Int("shards", 0, "cluster experiment: shard count (0 = scale default)")
		replicas  = flag.String("replicas", "", "cluster experiment: replication factors to sweep, comma-separated (empty = scale default)")
		tenants   = flag.Int("tenants", 0, "cluster experiment: tenant count (0 = scale default)")
		skew      = flag.String("skew", "", "cluster experiment: tenant Zipf thetas to sweep, comma-separated, 0 = uniform (empty = scale default)")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "pipette-bench")
		return
	}
	if *list {
		fmt.Println("experiments (select by id or by any artifact):")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-18s %-34s %s\n", e.ID, strings.Join(e.Artifacts, ","), e.Title)
		}
		return
	}

	var scale bench.Scale
	switch *scaleName {
	case "tiny":
		scale = bench.TinyScale()
	case "quick":
		scale = bench.QuickScale()
	case "full":
		scale = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "pipette-bench: unknown scale %q (tiny|quick|full)\n", *scaleName)
		os.Exit(2)
	}
	if prof, err := fault.ParseProfile(*faultProf); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(2)
	} else {
		scale.Fault = prof
		scale.FaultSeed = *faultSeed
	}
	if *shards > 0 {
		scale.ClusterShards = *shards
	}
	if *tenants > 0 {
		scale.ClusterTenants = *tenants
	}
	if *replicas != "" {
		rs, err := parseIntList(*replicas)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: -replicas: %v\n", err)
			os.Exit(2)
		}
		scale.ClusterReplicas = rs
	}
	if *skew != "" {
		sk, err := parseFloatList(*skew)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: -skew: %v\n", err)
			os.Exit(2)
		}
		scale.ClusterSkews = sk
	}
	if *compare && *baseline == "" {
		fmt.Fprintln(os.Stderr, "pipette-bench: -compare needs -baseline")
		os.Exit(2)
	}
	if err := checkExportOut(*expName, *exportOut); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// -flight-dump arms one shared recorder across every engine the harness
	// builds. The file is created eagerly so a missing directory fails
	// before hours of cells run, and the dump closure is once-only — under
	// -j several cells can fail together, but only the first writes.
	var dumpFlight func(reason string)
	if *flightOut != "" {
		flight := telemetry.NewFlightRecorder(telemetry.DefaultFlightEvents)
		flightFile, err := os.Create(*flightOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		defer flightFile.Close()
		var once sync.Once
		dumpFlight = func(reason string) {
			once.Do(func() {
				if derr := flight.Dump(flightFile, reason, 0); derr != nil {
					fmt.Fprintf(os.Stderr, "pipette-bench: flight dump: %v\n", derr)
					return
				}
				fmt.Fprintf(os.Stderr, "pipette-bench: flight recorder dumped to %s (%s)\n", *flightOut, reason)
			})
		}
		bench.ArmFlight(flight, dumpFlight)
		defer bench.ArmFlight(nil, nil)
	}

	topts := bench.TelemetryOpts{
		TraceOut:      *traceOut,
		StatsOut:      *statsOut,
		StatsInterval: sim.Time((*statsInt).Nanoseconds()),
		ExportOut:     *exportOut,
	}
	pool := bench.NewPool(*workers)

	// -listen attaches the live registry before any cell runs. Finished
	// cells fold their counters in atomically, so the rendered tables on
	// stdout are byte-identical with or without a scraper; the server's own
	// chatter goes to stderr.
	if *listen != "" {
		reg := telemetry.NewRegistry(telemetry.L("job", "pipette-bench"))
		buildinfo.Register(reg, "pipette-bench")
		live := bench.NewLive(reg)
		pool.SetLive(live)
		srv, err := telemetry.Serve(*listen, reg, live.Progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pipette-bench: serving /metrics /healthz /progress on http://%s\n", srv.Addr())
	}

	start := time.Now()
	if err := runExperiments(*expName, scale, topts, pool); err != nil {
		if dumpFlight != nil {
			dumpFlight(fmt.Sprintf("fatal: %v", err))
		}
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()
	fmt.Printf("(wall time %.1fs, scale %s, -j %d)\n", wall, scale.Name, pool.Workers())

	revision := *rev
	if revision == "" {
		revision = buildinfo.Version
	}
	summary := &bench.Summary{
		Rev:         revision,
		Experiment:  *expName,
		Scale:       scale.Name,
		Workers:     pool.Workers(),
		WallSeconds: wall,
		Cells:       pool.Perf(),
	}

	jsonPath := *jsonOut
	if jsonPath == "" && *compare {
		jsonPath = fmt.Sprintf("BENCH_%s.json", revision)
	}
	if jsonPath != "" {
		if err := summary.WriteFile(jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		if jsonPath != "-" {
			fmt.Printf("perf summary written to %s (%d cells)\n", jsonPath, len(summary.Cells))
		}
	}

	if *baseline != "" {
		base, err := bench.ReadSummary(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		tol := bench.DefaultTolerance()
		if *tolerance > 0 {
			tol = bench.Uniform(*tolerance)
		}
		regs, err := bench.Compare(summary, base, tol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.GateReport(summary, base, regs))
		if *compare && len(regs) > 0 {
			os.Exit(1)
		}
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// exportExperiments honour -export-out, each writing the whole file.
var exportExperiments = []string{"phases", "qdepth", "kv", "cluster"}

// checkExportOut rejects an -export-out run whose selection names more than
// one exporting experiment ("all" names every one): each would overwrite the
// file the previous one wrote. Unknown names are left to runExperiments.
func checkExportOut(sel, out string) error {
	if out == "" {
		return nil
	}
	var picked []string
	for _, id := range exportExperiments {
		for _, raw := range strings.Split(sel, ",") {
			name := strings.TrimSpace(raw)
			exp, err := bench.Find(name)
			if name == "all" || (err == nil && exp.ID == id) {
				picked = append(picked, id)
				break
			}
		}
	}
	if len(picked) > 1 {
		return fmt.Errorf("-export-out writes one experiment's runs, but %s are selected; run them one at a time",
			strings.Join(picked, ", "))
	}
	return nil
}

// runExperiments executes a comma-separated experiment selection against
// one shared pool, so the perf summary covers every cell.
func runExperiments(sel string, scale bench.Scale, topts bench.TelemetryOpts, pool *bench.Pool) error {
	names := strings.Split(sel, ",")
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		if name == "all" {
			if err := bench.RunAll(os.Stdout, scale, pool); err != nil {
				return err
			}
			continue
		}
		exp, err := bench.Find(name)
		if err != nil {
			return err
		}
		fmt.Printf("### %s\n\n", exp.Title)
		if exp.ID == "phases" {
			// The phases experiment honours the export flags.
			err = bench.WritePhaseBreakdown(os.Stdout, scale, topts, pool)
		} else if exp.ID == "qdepth" {
			// The qdepth experiment honours -export-out.
			err = bench.WriteQDepth(os.Stdout, scale, topts, pool)
		} else if exp.ID == "cluster" {
			// The cluster experiment honours -export-out.
			err = bench.WriteCluster(os.Stdout, scale, topts, pool)
		} else if exp.ID == "kv" {
			// The kv matrix honours -export-out.
			err = bench.WriteKV(os.Stdout, scale, topts, pool)
		} else {
			err = exp.Run(os.Stdout, scale, pool)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
