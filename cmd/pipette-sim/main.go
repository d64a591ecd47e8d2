// Command pipette-sim runs configurable simulations: it builds one host+SSD
// system per workload with Pipette installed, replays the workload, and
// dumps the full statistics report — a scriptable counterpart to
// pipette-bench's fixed experiment grid. -workload accepts a
// comma-separated list; the runs are independent simulations, so -j
// replays them on parallel workers while the reports print in the order
// given, byte-identical to a serial run. trace:PATH names a trace recorded
// with pipette-trace gen, replayed over its extent.
//
// Every run is one bench pool cell that replays through bench.Run, closed
// loop by default or on an open-loop arrival process (-arrivals), so the
// exports, the flight recorder and the live endpoint work the same way in
// both modes.
//
// Usage:
//
//	pipette-sim -workload mixE -dist zipfian -requests 100000
//	pipette-sim -workload mixA,mixC,mixE -j 3
//	pipette-sim -workload recommender -requests 200000 -fine=false
//	pipette-sim -workload socialgraph -pagecache 64 -finecache 8
//	pipette-sim -workload trace:d.trace       # a recorded trace
//	pipette-sim -trace-out trace.json -stats-out stats.csv
//	pipette-sim -listen :9101                 # live /metrics while replaying
//	pipette-sim -fault-profile nand.read:rber*50 -flight-dump flight.json
//	pipette-sim -arrivals poisson -rate 150000 -qd 16
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pipette/internal/baseline"
	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/fault"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/trace"
	"pipette/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// replayer is one invocation's replay settings, shared by every workload's
// cell, and the telemetry each cell attaches to its engine.
type replayer struct {
	dist      string
	requests  int
	fileMB    int64
	pcMB      int64
	fgMB      int
	fine      bool
	seed      uint64
	faults    fault.Profile
	faultSeed uint64
	arrivals  string // closed, poisson or bursty
	rate      float64
	qd        int
	burst     int
	peak      float64
	arrSeed   uint64

	flight   *telemetry.FlightDump // -flight-dump: its ring traces every engine
	reg      *telemetry.Registry   // -listen: each engine's stage account binds here
	rec      *telemetry.Recorder   // -trace-out: the one workload's tracer
	interval sim.Time              // -stats-out: the sampling interval (0 = no sampler)
	sampler  *telemetry.Sampler    // -stats-out: set by the one workload's cell
}

// run is the command: it parses args, replays every workload as a pool
// cell, prints the reports to stdout in input order, and returns the exit
// code.
func run(args []string, stdout io.Writer) int {
	r := &replayer{}
	fs := flag.NewFlagSet("pipette-sim", flag.ContinueOnError)
	wl := fs.String("workload", "mixE", "comma-separated list of mixA..mixE, recommender, socialgraph, searchengine, or trace:PATH (a recorded trace)")
	fs.StringVar(&r.dist, "dist", "uniform", "synthetic request distribution: uniform or zipfian (not for traces)")
	fs.IntVar(&r.requests, "requests", 100_000, "requests to replay (a trace repeats from its start)")
	fs.Int64Var(&r.fileMB, "file-mb", 128, "synthetic dataset size (MiB); a trace's dataset is its extent")
	fs.Int64Var(&r.pcMB, "pagecache", 40, "page cache budget (MiB)")
	fs.IntVar(&r.fgMB, "finecache", 8, "fine-grained read cache arena (MiB)")
	fs.BoolVar(&r.fine, "fine", true, "enable the fine-grained read cache")
	fs.Uint64Var(&r.seed, "seed", 42, "workload seed (not for traces)")
	workers := fs.Int("j", 0, "worker goroutines when replaying several workloads (0 = GOMAXPROCS)")
	version := fs.Bool("version", false, "print build identity and exit")
	listen := fs.String("listen", "", "serve live /metrics, /healthz, and /progress on this address (e.g. :9101)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto)")
	statsOut := fs.String("stats-out", "", "write sampled time-series CSV")
	statsInt := fs.Duration("stats-interval", time.Millisecond, "virtual-time sampling interval for -stats-out")
	exportOut := fs.String("export", "", "write the run-export bundle JSON (pipette-report input) to this file")
	flightOut := fs.String("flight-dump", "", "arm the flight recorder; the first uncorrectable read, fatal error, or panic dumps the recent-event ring to this file as JSON")
	faultProf := fs.String("fault-profile", "", "arm fault injection: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
	fs.Uint64Var(&r.faultSeed, "fault-seed", 0x5eed, "seed for the fault injector's per-site decision streams")
	fs.StringVar(&r.arrivals, "arrivals", "closed", "request arrival process: closed (next issues on completion), poisson, or bursty")
	fs.Float64Var(&r.rate, "rate", 200_000, "open loop: offered arrival rate (requests per second of virtual time)")
	fs.IntVar(&r.qd, "qd", 32, "open loop: in-flight request bound; arrivals past it queue for admission")
	fs.IntVar(&r.burst, "burst", 64, "bursty arrivals: requests per burst")
	fs.Float64Var(&r.peak, "peak", 8, "bursty arrivals: in-burst rate as a multiple of -rate")
	fs.Uint64Var(&r.arrSeed, "arrival-seed", 0xa221, "open loop: arrival process seed")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "pipette-sim")
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		return code
	}
	var err error
	if r.faults, err = fault.ParseProfile(*faultProf); err != nil {
		return fail(2, err)
	}
	if err := checkRequests(r.requests); err != nil {
		return fail(2, err)
	}
	if r.qd < 1 {
		return fail(2, fmt.Errorf("-qd %d: need at least 1", r.qd))
	}
	if min(r.pcMB, int64(r.fgMB)) < 1 {
		return fail(2, fmt.Errorf("-pagecache %d, -finecache %d: each needs at least 1 (MiB)", r.pcMB, r.fgMB))
	}
	interval, err := statsInterval(*statsInt)
	if err != nil {
		return fail(2, err)
	}
	switch r.arrivals {
	case "closed", "poisson", "bursty":
	default:
		return fail(2, fmt.Errorf("unknown -arrivals %q (closed|poisson|bursty)", r.arrivals))
	}
	wls := workloadNames(*wl)
	if len(wls) > 1 && (*traceOut != "" || *statsOut != "") {
		return fail(2, fmt.Errorf("-trace-out and -stats-out write one run; give a single -workload"))
	}

	// The trace and time-series files are created before any replay (a bad
	// path fails fast) and flushed even when the replay dies mid-run, so
	// partial artifacts stay readable for post-mortem work.
	var exports telemetry.Exports
	defer exports.Close()
	if *traceOut != "" {
		r.rec = telemetry.NewRecorder()
		if err := exports.Add(*traceOut, r.rec.WriteChromeTrace); err != nil {
			return fail(1, err)
		}
	}
	if *statsOut != "" {
		r.interval = interval
		if err := exports.Add(*statsOut, func(w io.Writer) error {
			if r.sampler == nil {
				return nil
			}
			return r.sampler.WriteCSV(w)
		}); err != nil {
			return fail(1, err)
		}
	}

	// -flight-dump arms one recorder on every engine; the first media
	// error (bench.Run), fatal error or panicking cell dumps it, and a
	// clean run dumps it at the end.
	if *flightOut != "" {
		if r.flight, err = telemetry.OpenFlightDump(*flightOut, "pipette-sim", nil); err != nil {
			return fail(1, err)
		}
		defer r.flight.Close()
		bench.ArmFlight(r.flight.Recorder(), r.flight.Dump)
		defer bench.ArmFlight(nil, nil)
	}

	pool := bench.NewPool(*workers)
	pool.SetTelemetry(bench.TelemetryOpts{ExportOut: *exportOut})
	if *listen != "" {
		r.reg = telemetry.NewRegistry(telemetry.L("job", "pipette-sim"))
		buildinfo.Register(r.reg, "pipette-sim")
		live := bench.NewLive(r.reg)
		pool.SetLive(live)
		srv, err := telemetry.Serve(*listen, r.reg, live.Progress)
		if err != nil {
			return fail(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pipette-sim: serving /metrics /healthz /progress on http://%s\n", srv.Addr())
	}

	// Each workload is a private simulation rendering into its own
	// buffer; the buffers print in input order.
	bufs := make([]bytes.Buffer, len(wls))
	cells := make([]bench.Cell, len(wls))
	for i, name := range wls {
		label := fmt.Sprintf("sim/%d/%s", i, name)
		cells[i] = bench.Cell{Label: label, Run: func() (*bench.Result, error) {
			return r.replay(&bufs[i], label, name)
		}}
	}
	err = pool.RunCells(cells)
	for i := range bufs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		stdout.Write(bufs[i].Bytes())
	}
	if cerr := exports.Close(); err == nil { // idempotent; the defer no-ops
		err = cerr
	}
	if err != nil {
		r.flight.Dump(fmt.Sprintf("fatal: %v", err))
		return fail(1, err)
	}
	if r.rec != nil {
		fmt.Fprintf(stdout, "trace written to %s (%d events; open in Perfetto / chrome://tracing)\n",
			*traceOut, r.rec.Events())
	}
	if r.sampler != nil {
		fmt.Fprintf(stdout, "time series written to %s (%d samples, %d series)\n",
			*statsOut, r.sampler.Rows(), len(r.sampler.Series()))
	}
	r.flight.End()
	if *exportOut != "" {
		exp := &report.Export{Tool: "pipette-sim", Version: buildinfo.Version, Runs: pool.Runs()}
		if err := exp.WriteFile(*exportOut); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "run export written to %s (%d runs)\n", *exportOut, len(exp.Runs))
	}
	return 0
}

// statsInterval converts -stats-interval to virtual time, rejecting a zero
// or negative interval before any file is created.
func statsInterval(d time.Duration) (sim.Time, error) {
	if d <= 0 {
		return 0, fmt.Errorf("-stats-interval %v: sampling interval must be positive", d)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// checkRequests rejects a -requests count below 1: there is nothing to
// replay, and the report would divide by a zero elapsed time.
func checkRequests(n int) error {
	if n < 1 {
		return fmt.Errorf("-requests %d: need at least 1", n)
	}
	return nil
}

// workloadNames splits a -workload list and trims each name, so a single
// name and a list accept the same spelling.
func workloadNames(list string) []string {
	names := strings.Split(list, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}

// generator builds the named workload: a built-in generator over -file-mb
// of data or, for trace:PATH, the trace recorded at PATH over its extent.
func (r *replayer) generator(name string) (workload.Generator, error) {
	path, ok := strings.CutPrefix(name, "trace:")
	if !ok {
		return workload.ByName(name, r.dist, r.fileMB<<20, r.seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reqs, err := trace.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return trace.NewReplayer(path, trace.Summarize(reqs).Extent, reqs)
}

// engine builds the Pipette engine (without its fine cache for -fine=false)
// over a private stack sized for fileSize bytes. An open loop turns the
// device's contention on (PCIe link and NVMe fetch arbitration), as the
// qdepth experiment does, since its requests overlap there.
func (r *replayer) engine(fileSize int64, open bool) (*baseline.VFSEngine, error) {
	cfg := baseline.DefaultStackConfig(fileSize)
	cfg.SetCaches(int(r.pcMB<<20/int64(cfg.SSD.NAND.PageSize)), r.fgMB<<20)
	cfg.FaultProfile, cfg.FaultSeed = r.faults, r.faultSeed
	if open {
		cfg.SSD.LinkArbitration = true
		cfg.NVMe.Arbitration = 100 * sim.Nanosecond
	}
	if !r.fine {
		return baseline.NewPipetteNoCache(cfg)
	}
	return baseline.NewPipette(cfg)
}

// arrivalProcess returns the open-loop schedule, nil for a closed loop.
func (r *replayer) arrivalProcess() (workload.Arrivals, error) {
	switch r.arrivals {
	case "poisson":
		return workload.NewPoisson(r.rate, r.arrSeed)
	case "bursty":
		return workload.NewBursty(r.rate, r.burst, r.peak, r.arrSeed)
	}
	return nil, nil
}

// replay is one workload's cell: it builds the engine, attaches the run's
// telemetry, replays through bench.Run, and renders the report into w.
func (r *replayer) replay(w io.Writer, label, name string) (*bench.Result, error) {
	gen, err := r.generator(name)
	if err != nil {
		return nil, err
	}
	arr, err := r.arrivalProcess()
	if err != nil {
		return nil, err
	}
	e, err := r.engine(gen.FileSize(), arr != nil)
	if err != nil {
		return nil, err
	}
	var tracers []telemetry.Tracer
	if r.rec != nil {
		tracers = append(tracers, r.rec)
	}
	if fr := r.flight.Recorder(); fr != nil {
		tracers = append(tracers, fr)
	}
	if len(tracers) > 0 {
		e.SetTracer(telemetry.Tee(tracers...))
	}
	e.Stages().BindRegistry(r.reg, telemetry.L("cell", label)) // no-op without -listen
	opts := bench.RunOpts{
		Arrivals: arr, Depth: r.qd, Offered: r.rate,
		// Under an armed fault profile uncorrectable media errors are
		// expected outcomes, not failures: count them and go on.
		TolerateMediaErrors: !r.faults.Empty(),
	}
	if r.interval > 0 {
		if r.sampler, err = telemetry.NewSampler(r.interval, e.Probes()); err != nil {
			return nil, err
		}
		opts.Sampler = r.sampler
	}

	loop := " ("
	if arr != nil {
		loop = fmt.Sprintf(", open loop (%s arrivals, %.0f ops/s offered, qd %d, ", arr.Name(), r.rate, r.qd)
	}
	fmt.Fprintf(w, "workload %s over %.1f MiB, %d requests%sfine cache: %v)\n\n",
		gen.Name(), float64(gen.FileSize())/(1<<20), r.requests, loop, r.fine)
	res, err := bench.Run(e, gen, r.requests, opts)
	if err != nil {
		return nil, err
	}
	res.Name = name
	if arr != nil {
		res.Workload = fmt.Sprintf("%s-qd%d-%s@%.0f", name, res.Depth, res.Arrivals, r.rate)
	}

	fmt.Fprintln(w, e.Report(res.Snapshot.Elapsed))
	if res.Lost > 0 {
		fmt.Fprintf(w, "\nuncorrectable     %d of %d requests lost to media errors\n", res.Lost, r.requests)
	}
	if arr == nil {
		fmt.Fprintf(w, "\nthroughput        %.0f ops/s (virtual)\n", res.Snapshot.ThroughputOpsPerSec())
	} else {
		var queueUs float64
		if res.Stages.Requests > 0 {
			queueUs = (sim.Time(int64(res.Stages.Totals[telemetry.StageQueue])) /
				sim.Time(int64(res.Stages.Requests))).Micros()
		}
		fmt.Fprintf(w, "\noffered           %.0f ops/s\n", r.rate)
		fmt.Fprintf(w, "achieved          %.0f ops/s (virtual)\n", res.Snapshot.ThroughputOpsPerSec())
		fmt.Fprintf(w, "latency (arrival to completion)\n")
		fmt.Fprintf(w, "  mean            %.2f µs\n", res.Hist.Mean().Micros())
		fmt.Fprintf(w, "  p50             %.2f µs\n", res.Hist.Quantile(0.50).Micros())
		fmt.Fprintf(w, "  p99             %.2f µs\n", res.Hist.Quantile(0.99).Micros())
		fmt.Fprintf(w, "  max             %.2f µs\n", res.Hist.Max().Micros())
		fmt.Fprintf(w, "mean queue wait   %.2f µs\n", queueUs)
	}
	if r.rec != nil {
		fmt.Fprintf(w, "\nper-phase latency breakdown:\n%s", r.rec.Breakdown().Render())
	}
	return res, nil
}
