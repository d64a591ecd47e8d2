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
//	pipette-bench -exp qdepth -export-out qd.json  # any one experiment's runs for pipette-report
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
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/fault"
	"pipette/internal/report"
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
		tolerance = flag.Float64("tolerance", 0, "relative tolerance band for every gated metric (0 = the default, 0.10)")
		rev       = flag.String("rev", "", "revision stamped into the perf summary (default: build version)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		traceOut  = flag.String("trace-out", "", "phases experiment: write Chrome trace-event JSON (open in Perfetto)")
		statsOut  = flag.String("stats-out", "", "phases experiment: write sampled time-series CSV")
		exportOut = flag.String("export-out", "", "write every cell's run record to this run-export bundle JSON (pipette-report input); the selection must name one experiment")
		statsInt  = flag.Duration("stats-interval", time.Millisecond, "virtual-time sampling interval for -stats-out")
		faultProf = flag.String("fault-profile", "", "arm fault injection on every engine: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
		flightOut = flag.String("flight-dump", "", "arm a shared flight recorder on every engine; a panicking cell or fatal error dumps the recent-event ring to this file as JSON, and a clean run dumps it at the end")
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
	tol, err := gateTolerance(*tolerance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipette-bench: -tolerance: %v\n", err)
		os.Exit(2)
	}
	if err := checkExportOut(*expName, *exportOut); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(2)
	}
	if err := checkTraceOut(*expName, *traceOut, *statsOut); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(2)
	}
	interval, err := statsInterval(*statsInt)
	if err != nil {
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
	// builds. Under -j several cells can fail together; only the first
	// dumps, and a clean run dumps at its end.
	var flight *telemetry.FlightDump
	if *flightOut != "" {
		var err error
		if flight, err = telemetry.OpenFlightDump(*flightOut, "pipette-bench", nil); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		defer flight.Close()
		bench.ArmFlight(flight.Recorder(), flight.Dump)
		defer bench.ArmFlight(nil, nil)
	}

	pool := bench.NewPool(*workers)
	pool.SetTelemetry(bench.TelemetryOpts{
		TraceOut:      *traceOut,
		StatsOut:      *statsOut,
		StatsInterval: interval,
		ExportOut:     *exportOut,
	})

	// -export-out: one bundle of the pool's run records, created before any
	// cell runs (a bad path fails fast) and flushed even when a cell fails,
	// so the runs that finished survive.
	var exports telemetry.Exports
	defer exports.Close()
	if *exportOut != "" {
		var name string // checkExportOut allowed at most one
		if names := selection(*expName); len(names) == 1 {
			name = names[0]
		}
		exp, err := bench.Find(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		if err := exports.Add(*exportOut, func(w io.Writer) error {
			bundle := &report.Export{Tool: "pipette-bench " + exp.ID, Version: buildinfo.Version,
				Scale: scale.Name, Runs: pool.Runs()}
			return bundle.WriteJSON(w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
	}

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
	err = runExperiments(*expName, scale, pool)
	if cerr := exports.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		flight.Dump(fmt.Sprintf("fatal: %v", err))
		fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
		os.Exit(1)
	}
	flight.End()
	if *exportOut != "" {
		fmt.Printf("\nrun export written to %s (%d runs; render with pipette-report)\n",
			*exportOut, len(pool.Runs()))
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
		d, err := bench.Compare(summary, base, tol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipette-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.GateReport(summary, base, d))
		if *compare && d.Failures() > 0 {
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

// selection splits a comma-separated -exp value into its non-empty names.
func selection(sel string) []string {
	var names []string
	for _, raw := range strings.Split(sel, ",") {
		if name := strings.TrimSpace(raw); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// gateTolerance resolves -tolerance: 0 selects report.DefaultTolerance,
// and a value report.CheckTolerance rejects is an error.
func gateTolerance(v float64) (float64, error) {
	if v == 0 {
		return report.DefaultTolerance, nil
	}
	return v, report.CheckTolerance(v)
}

// checkExportOut rejects an -export-out run whose selection names more than
// one experiment ("all" names every one): the bundle holds one experiment's
// runs. Unknown names are left to runExperiments.
func checkExportOut(sel, out string) error {
	if out == "" {
		return nil
	}
	if names := selection(sel); len(names) > 1 || (len(names) == 1 && names[0] == "all") {
		return fmt.Errorf("-export-out writes one experiment's runs, but %s are selected; run them one at a time",
			strings.Join(names, ", "))
	}
	return nil
}

// statsInterval converts -stats-interval to virtual time, rejecting a zero
// or negative interval before any file is created.
func statsInterval(d time.Duration) (sim.Time, error) {
	if d <= 0 {
		return 0, fmt.Errorf("-stats-interval %v: sampling interval must be positive", d)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// checkTraceOut rejects -trace-out and -stats-out when the selection leaves
// out the phases experiment, the one that writes them.
func checkTraceOut(sel, traceOut, statsOut string) error {
	if traceOut == "" && statsOut == "" {
		return nil
	}
	for _, name := range selection(sel) {
		if exp, err := bench.Find(name); name == "all" || (err == nil && exp.ID == "phases") {
			return nil
		}
	}
	return fmt.Errorf("-trace-out and -stats-out are written by the phases experiment, which %q does not select", sel)
}

// runExperiments executes a comma-separated experiment selection against
// one shared pool, so the perf summary covers every cell.
func runExperiments(sel string, scale bench.Scale, pool *bench.Pool) error {
	for i, name := range selection(sel) {
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
		if err := exp.Run(os.Stdout, scale, pool); err != nil {
			return err
		}
	}
	return nil
}
