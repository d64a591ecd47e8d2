// Command pipette-sim runs configurable simulations: it builds one host+SSD
// system per workload with Pipette installed, replays the workload, and
// dumps the full statistics report — a scriptable counterpart to
// pipette-bench's fixed experiment grid. -workload accepts a
// comma-separated list; the runs are independent simulations, so -j
// replays them on parallel workers while the reports print in the order
// given, byte-identical to a serial run.
//
// Usage:
//
//	pipette-sim -workload mixE -dist zipfian -requests 100000
//	pipette-sim -workload mixA,mixC,mixE -j 3
//	pipette-sim -workload recommender -requests 200000 -fine=false
//	pipette-sim -workload socialgraph -pagecache 64 -finecache 8
//	pipette-sim -trace-out trace.json -stats-out stats.csv
//	pipette-sim -listen :9101                 # live /metrics while replaying
//	pipette-sim -fault-profile nand.read:rber*50 -flight-dump flight.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"pipette"
	"pipette/internal/baseline"
	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// telemetryOpts are the observability attachments of one run: export
// files, the flight-recorder dump path, and the -listen registry.
type telemetryOpts struct {
	traceOut      string
	statsOut      string
	statsInterval sim.Time
	flightOut     string
	reg           *telemetry.Registry // -listen: the system registers its families here
	progress      *simProgress        // -listen: /progress state
}

// simProgress is the /progress document of an interactive run, updated
// with plain atomic stores — the replay itself never observes it.
type simProgress struct {
	total uint64
	done  atomic.Uint64
	lost  atomic.Uint64
}

func (p *simProgress) snapshot() any {
	if p == nil {
		return struct{}{}
	}
	return struct {
		RequestsTotal uint64 `json:"requests_total"`
		RequestsDone  uint64 `json:"requests_done"`
		RequestsLost  uint64 `json:"requests_lost"`
	}{p.total, p.done.Load(), p.lost.Load()}
}

func main() {
	var (
		wl        = flag.String("workload", "mixE", "comma-separated list of mixA..mixE, recommender, socialgraph, or searchengine")
		dist      = flag.String("dist", "uniform", "synthetic request distribution: uniform or zipfian")
		requests  = flag.Int("requests", 100_000, "requests to replay")
		fileMB    = flag.Int64("file-mb", 128, "synthetic dataset size (MiB)")
		pcMB      = flag.Int64("pagecache", 40, "page cache budget (MiB)")
		fgMB      = flag.Int("finecache", 8, "fine-grained read cache arena (MiB)")
		fine      = flag.Bool("fine", true, "enable the fine-grained read cache")
		seed      = flag.Uint64("seed", 42, "workload seed")
		workers   = flag.Int("j", 0, "worker goroutines when replaying several workloads (0 = GOMAXPROCS)")
		version   = flag.Bool("version", false, "print build identity and exit")
		listen    = flag.String("listen", "", "serve live /metrics, /healthz, and /progress on this address (e.g. :9101)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto)")
		statsOut  = flag.String("stats-out", "", "write sampled time-series CSV")
		statsInt  = flag.Duration("stats-interval", time.Millisecond, "virtual-time sampling interval for -stats-out")
		exportOut = flag.String("export", "", "write the run-export bundle JSON (pipette-report input) to this file")
		flightOut = flag.String("flight-dump", "", "arm the flight recorder; the first uncorrectable read, fatal error, or panic dumps the recent-event ring to this file as JSON")
		faultProf = flag.String("fault-profile", "", "arm fault injection: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
		faultSeed = flag.Uint64("fault-seed", 0x5eed, "seed for the fault injector's per-site decision streams")
		arrivals  = flag.String("arrivals", "closed", "request arrival process: closed (next issues on completion), poisson, or bursty")
		rate      = flag.Float64("rate", 200_000, "open loop: offered arrival rate (requests per second of virtual time)")
		qd        = flag.Int("qd", 32, "open loop: in-flight request bound; arrivals past it queue for admission")
		burst     = flag.Int("burst", 64, "bursty arrivals: requests per burst")
		peak      = flag.Float64("peak", 8, "bursty arrivals: in-burst rate as a multiple of -rate")
		arrSeed   = flag.Uint64("arrival-seed", 0xa221, "open loop: arrival process seed")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "pipette-sim")
		return
	}
	if _, err := fault.ParseProfile(*faultProf); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		os.Exit(2)
	}
	if err := checkRequests(*requests); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		os.Exit(2)
	}
	interval, err := statsInterval(*statsInt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		os.Exit(2)
	}
	switch *arrivals {
	case "closed", "poisson", "bursty":
	default:
		fmt.Fprintf(os.Stderr, "pipette-sim: unknown -arrivals %q (closed|poisson|bursty)\n", *arrivals)
		os.Exit(2)
	}
	ol := openLoop{mode: *arrivals, rate: *rate, depth: *qd, burst: *burst, peak: *peak, seed: *arrSeed}
	if ol.mode != "closed" && (*traceOut != "" || *statsOut != "" || *flightOut != "" || *listen != "") {
		fmt.Fprintln(os.Stderr, "pipette-sim: open-loop arrivals do not support -trace-out/-stats-out/-flight-dump/-listen")
		os.Exit(2)
	}

	topts := telemetryOpts{
		traceOut:      *traceOut,
		statsOut:      *statsOut,
		statsInterval: interval,
		flightOut:     *flightOut,
	}
	wls := workloadNames(*wl)
	if len(wls) > 1 && (topts.traceOut != "" || topts.statsOut != "" || topts.flightOut != "" || *listen != "") {
		fmt.Fprintln(os.Stderr, "pipette-sim: -trace-out/-stats-out/-flight-dump/-listen need a single -workload")
		os.Exit(2)
	}

	// -export collects one report run per workload, in input order, and
	// writes the bundle after every replay finishes — deterministic at any
	// -j because the runs are private simulations rendered post-hoc.
	runs := make([]report.Run, len(wls))
	writeExport := func() error {
		if *exportOut == "" {
			return nil
		}
		exp := &report.Export{Tool: "pipette-sim", Version: buildinfo.Version, Runs: runs}
		if err := exp.WriteFile(*exportOut); err != nil {
			return err
		}
		fmt.Printf("run export written to %s (%d runs)\n", *exportOut, len(runs))
		return nil
	}

	if len(wls) == 1 {
		if *listen != "" {
			topts.reg = telemetry.NewRegistry(telemetry.L("job", "pipette-sim"))
			buildinfo.Register(topts.reg, "pipette-sim")
			topts.progress = &simProgress{total: uint64(*requests)}
			srv, err := telemetry.Serve(*listen, topts.reg, topts.progress.snapshot)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "pipette-sim: serving /metrics /healthz /progress on http://%s\n", srv.Addr())
		}
		if err := run(os.Stdout, wls[0], *dist, *requests, *fileMB, *pcMB, *fgMB, *fine, *seed, *faultProf, *faultSeed, ol, topts, &runs[0]); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
			os.Exit(1)
		}
		if err := writeExport(); err != nil {
			fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Several workloads: each is a fully private simulation, so replay them
	// as pool cells rendering into per-run buffers, printed in input order.
	bufs := make([]bytes.Buffer, len(wls))
	cells := make([]bench.Cell, 0, len(wls))
	for i, name := range wls {
		cells = append(cells, bench.Cell{
			Label: "sim/" + name,
			Run: func() (*bench.Result, error) {
				return nil, run(&bufs[i], name, *dist, *requests, *fileMB, *pcMB, *fgMB, *fine, *seed, *faultProf, *faultSeed, ol, telemetryOpts{}, &runs[i])
			},
		})
	}
	pool := bench.NewPool(*workers)
	err = pool.RunCells(cells)
	for i := range bufs {
		if i > 0 {
			fmt.Println()
		}
		os.Stdout.Write(bufs[i].Bytes())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		os.Exit(1)
	}
	if err := writeExport(); err != nil {
		fmt.Fprintf(os.Stderr, "pipette-sim: %v\n", err)
		os.Exit(1)
	}
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

// openLoop is the parsed open-loop arrival configuration; mode "closed"
// selects the default synchronous replay.
type openLoop struct {
	mode  string
	rate  float64
	depth int
	burst int
	peak  float64
	seed  uint64
}

func run(w io.Writer, wl, dist string, requests int, fileMB, pcMB int64, fgMB int, fine bool, seed uint64, faultProf string, faultSeed uint64, ol openLoop, topts telemetryOpts, expRun *report.Run) (err error) {
	gen, err := workload.ByName(wl, dist, fileMB<<20, seed)
	if err != nil {
		return err
	}
	if ol.mode != "closed" {
		return runOpenLoop(w, wl, gen, requests, pcMB, fgMB, fine, faultProf, faultSeed, ol, expRun)
	}

	sys, err := pipette.New(pipette.Options{
		CapacityBytes:    gen.FileSize() + gen.FileSize()/2 + (64 << 20),
		PageCacheBytes:   pcMB << 20,
		FineCacheBytes:   fgMB << 20,
		DisableFineCache: !fine,
		FaultProfile:     faultProf,
		FaultSeed:        faultSeed,
	})
	if err != nil {
		return err
	}
	if topts.reg != nil {
		sys.RegisterMetrics(topts.reg)
	}
	if err := sys.CreateFile("workload.dat", gen.FileSize(), true); err != nil {
		return err
	}
	f, err := sys.Open("workload.dat", pipette.ReadWrite|pipette.FineGrained)
	if err != nil {
		return err
	}

	// Every export file is created before the replay (a bad path fails
	// fast, not after minutes of simulation) and flushed by the deferred
	// Close even when the replay dies mid-run, so partial artifacts stay
	// readable for post-mortem work.
	var exports telemetry.Exports
	defer func() {
		if cerr := exports.Close(); err == nil {
			err = cerr
		}
	}()
	var rec *telemetry.Recorder
	if topts.traceOut != "" {
		rec = telemetry.NewRecorder()
		if err := exports.Add(topts.traceOut, rec.WriteChromeTrace); err != nil {
			return err
		}
	}
	var sampler *telemetry.Sampler
	if topts.statsOut != "" {
		sampler, err = telemetry.NewSampler(topts.statsInterval, sys.Probes())
		if err != nil {
			return err
		}
		if err := exports.Add(topts.statsOut, sampler.WriteCSV); err != nil {
			return err
		}
	}
	var flight *telemetry.FlightDump
	if topts.flightOut != "" {
		if flight, err = telemetry.OpenFlightDump(topts.flightOut, "pipette-sim", sys.Now, w); err != nil {
			return err
		}
		defer flight.Close()
	}
	// A panic anywhere in the replay still dumps the ring — the events
	// leading up to the crash are exactly what the recorder is for — then
	// resumes unwinding.
	defer flight.OnPanic()
	var tracers []telemetry.Tracer
	if rec != nil {
		tracers = append(tracers, rec)
	}
	if flight != nil {
		tracers = append(tracers, flight.Recorder())
	}
	if len(tracers) > 0 {
		sys.SetTracer(telemetry.Tee(tracers...))
	}

	fmt.Fprintf(w, "workload %s over %.1f MiB, %d requests (fine cache: %v)\n\n",
		gen.Name(), float64(gen.FileSize())/(1<<20), requests, fine)

	buf := make([]byte, 64<<10)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	var hist metrics.Histogram
	var lost int
	for i := 0; i < requests; i++ {
		req := gen.Next()
		if req.Size > len(buf) {
			buf = make([]byte, req.Size)
			payload = make([]byte, req.Size)
		}
		before := sys.Now()
		if req.Write {
			_, err = f.WriteAt(payload[:req.Size], req.Off)
		} else {
			_, err = f.ReadAt(buf[:req.Size], req.Off)
		}
		hist.Observe(sys.Now() - before)
		if err != nil {
			// Under an armed fault profile uncorrectable media errors are
			// expected outcomes, not harness failures: count and go on.
			if !errors.Is(err, pipette.ErrUncorrectable) {
				flight.Dump(fmt.Sprintf("fatal error at request %d: %v", i, err))
				return fmt.Errorf("request %d: %w", i, err)
			}
			lost++
			if topts.progress != nil {
				topts.progress.lost.Add(1)
			}
			flight.Dump(fmt.Sprintf("uncorrectable media error at request %d", i))
		}
		if topts.progress != nil {
			topts.progress.done.Store(uint64(i + 1))
		}
		if sampler != nil {
			sampler.Tick(sys.Now())
		}
	}
	err = nil // the loop's last request may have been a counted media error

	rep := sys.Report()
	if expRun != nil {
		st := rep.Stages
		*expRun = report.Run{
			Name:      wl,
			Requests:  uint64(requests),
			ElapsedNs: int64(rep.Elapsed),
			OpsPerSec: float64(requests) / rep.Elapsed.Seconds(),
			ReadAmp:   rep.IO.ReadAmplification(),
			Latency:   report.PercentilesOf(&hist),
			StageNs:   int64(st.Sum()),
			Stages:    report.StageRows(&st),
			Resources: rep.Resources,
		}
	}
	fmt.Fprintln(w, rep)
	if lost > 0 {
		fmt.Fprintf(w, "\nuncorrectable     %d of %d requests lost to media errors\n", lost, requests)
	}
	fmt.Fprintf(w, "\nthroughput        %.0f ops/s (virtual)\n",
		float64(requests)/rep.Elapsed.Seconds())

	if rec != nil {
		fmt.Fprintf(w, "\nper-phase latency breakdown:\n%s", rec.Breakdown().Render())
	}
	if cerr := exports.Close(); cerr != nil { // idempotent; the defer no-ops
		return cerr
	}
	if rec != nil {
		fmt.Fprintf(w, "trace written to %s (%d events; open in Perfetto / chrome://tracing)\n",
			topts.traceOut, rec.Events())
	}
	if sampler != nil {
		fmt.Fprintf(w, "time series written to %s (%d samples, %d series)\n",
			topts.statsOut, sampler.Rows(), len(sampler.Series()))
	}
	flight.Dump("end of run (no anomaly)") // no-op after an anomaly's dump
	return nil
}

// runOpenLoop replays the workload open-loop against the full Pipette
// stack: requests arrive on the configured schedule, up to -qd run
// concurrently over the contended device model, and latency is measured
// arrival to completion. Device-side contention (PCIe link, NVMe fetch
// arbitration) is on, matching pipette-bench's qdepth experiment.
func runOpenLoop(w io.Writer, wl string, gen workload.Generator, requests int, pcMB int64, fgMB int, fine bool, faultProf string, faultSeed uint64, ol openLoop, expRun *report.Run) error {
	prof, err := fault.ParseProfile(faultProf)
	if err != nil {
		return err
	}
	cfg := baseline.DefaultStackConfig(gen.FileSize())
	cfg.SetCaches(int(pcMB<<20/4096), fgMB<<20)
	cfg.FaultProfile = prof
	cfg.FaultSeed = faultSeed
	cfg.SSD.LinkArbitration = true
	cfg.NVMe.Arbitration = 100 * sim.Nanosecond

	var e baseline.Engine
	if fine {
		e, err = baseline.NewPipette(cfg)
	} else {
		e, err = baseline.NewPipetteNoCache(cfg)
	}
	if err != nil {
		return err
	}

	var arr workload.Arrivals
	if ol.mode == "bursty" {
		arr, err = workload.NewBursty(ol.rate, ol.burst, ol.peak, ol.seed)
	} else {
		arr, err = workload.NewPoisson(ol.rate, ol.seed)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "workload %s over %.1f MiB, %d requests, open loop (%s arrivals, %.0f ops/s offered, qd %d, fine cache: %v)\n\n",
		gen.Name(), float64(gen.FileSize())/(1<<20), requests, arr.Name(), ol.rate, ol.depth, fine)

	res, err := bench.Run(e, gen, requests, bench.RunOpts{
		Arrivals: arr, Depth: ol.depth, Offered: ol.rate,
		// Match the closed-loop path: under an armed fault profile,
		// uncorrectable media errors are expected outcomes, not failures.
		TolerateMediaErrors: !prof.Empty(),
	})
	if err != nil {
		return err
	}
	if expRun != nil {
		res.Name, res.Workload = wl, fmt.Sprintf("%s-qd%d-%s@%.0f", wl, res.Depth, res.Arrivals, ol.rate)
		*expRun = bench.ExportRun(res)
	}

	var queueUs float64
	if res.Stages.Requests > 0 {
		queueUs = (sim.Time(int64(res.Stages.Totals[telemetry.StageQueue])) /
			sim.Time(int64(res.Stages.Requests))).Micros()
	}
	fmt.Fprintf(w, "offered           %.0f ops/s\n", ol.rate)
	fmt.Fprintf(w, "achieved          %.0f ops/s (virtual)\n", res.Snapshot.ThroughputOpsPerSec())
	if res.Lost > 0 {
		fmt.Fprintf(w, "uncorrectable     %d of %d requests lost to media errors\n", res.Lost, requests)
	}
	fmt.Fprintf(w, "latency (arrival to completion)\n")
	fmt.Fprintf(w, "  mean            %.2f µs\n", res.Hist.Mean().Micros())
	fmt.Fprintf(w, "  p50             %.2f µs\n", res.Hist.Quantile(0.50).Micros())
	fmt.Fprintf(w, "  p99             %.2f µs\n", res.Hist.Quantile(0.99).Micros())
	fmt.Fprintf(w, "  max             %.2f µs\n", res.Hist.Max().Micros())
	fmt.Fprintf(w, "mean queue wait   %.2f µs\n", queueUs)
	return nil
}
