// Command benchmark is the repository's benchmark: it runs one workload
// against the simulator in one process, checks the outputs, and prints every
// metric as "workload metric value unit", then one JSON result line.
//
//	go -C benchmark run . -workload fine-zipf -seed 1            # end-to-end metrics
//	go -C benchmark run . -workload fine-zipf -seed 1 -trace 1   # per-layer metrics
//	go -C benchmark run . -compare old/ new/                     # compare two sets of -out files
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// record is one run as -out writes it and -compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	GoVersion string                 `json:"go_version"`
	NProc     int                    `json:"nproc"`
	Version   string                 `json:"version"`
	Warmup    int                    `json:"warmup"`
	Requests  int                    `json:"requests"` // measured, all rounds
	Rounds    int                    `json:"rounds"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds numbers printed on the header line but not gated: wall
	// times before scaling and the exact latency quantiles.
	Info map[string]float64 `json:"info,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 10, "length of the timed phase on a 2-vCPU host; sets the request count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an untraced and a traced replay")
	out := fs.String("out", "", "also write the run as JSON to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two sets of -out files: -compare OLD NEW, each a directory or a glob")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no arguments follow the flags")
		return 2
	}

	// One proc: with two, the concurrent GC shares the second core with
	// whatever else runs on the host, and host-time spread grows severalfold.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{
		scale:    bench.QuickScale(),
		seed:     *seed,
		warmup:   w.warmup,
		requests: max(1, w.perSecond**seconds/w.rounds),
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, Trace: *trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Version: version(),
		Warmup: cfg.warmup, Rounds: w.rounds,
	}
	var (
		ms    metricSet
		specs = endToEnd
		err   error
	)
	if *trace == 1 {
		specs = perLayer
		ms, err = tracedRun(w, cfg, stderr)
	} else {
		ms, rec.Info, err = untracedRun(w, cfg)
	}
	rec.Requests = cfg.requests * rec.Rounds
	if err == nil {
		rec.Metrics, err = ms.export(specs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		writeResult(stdout, result{Attempted: rec.Requests, Failed: 1, Metrics: map[string]metricValue{}})
		return 1
	}

	fmt.Fprintf(stdout, "# %s seed=%d trace=%d rounds=%d warmup=%d requests=%d go=%s nproc=%d version=%s",
		rec.Workload, rec.Seed, rec.Trace, rec.Rounds, rec.Warmup, rec.Requests, rec.GoVersion, rec.NProc, rec.Version)
	keys := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, " %s=%s", k, strconv.FormatFloat(rec.Info[k], 'g', -1, 64))
	}
	fmt.Fprintln(stdout)
	for _, s := range specs {
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, s.Name,
			strconv.FormatFloat(rec.Metrics[s.Name].Value, 'g', -1, 64), s.Unit)
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	writeResult(stdout, result{Correct: true, Attempted: rec.Requests, Metrics: rec.Metrics})
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// version is the buildinfo stamp, or the module's VCS revision when the
// binary was not stamped.
func version() string {
	if buildinfo.Version != "dev" {
		return buildinfo.Version
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return buildinfo.Version
}

func writeResult(w io.Writer, r result) {
	b, _ := json.Marshal(r) // only finite floats reach here
	fmt.Fprintf(w, "%s\n", b)
}

func writeRecord(path string, rec record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// untracedRun measures the end-to-end metrics. info carries the unscaled
// wall times and the exact latency quantiles for the header line.
func untracedRun(w workloadDef, cfg runConfig) (ms metricSet, info map[string]float64, err error) {
	o, err := measure(w, cfg, w.rounds)
	if err != nil {
		return nil, nil, err
	}
	n := float64(len(o.m.lat))
	ms = metricSet{
		"host_ns_per_op":     o.m.hostNsPerOp(),
		"host_allocs_per_op": o.m.allocsPerOp(),
		"host_bytes_per_op":  o.m.bytesPerOp(),
		"setup_s":            median(o.setup),
		"rss_mb":             o.m.rssMiB,
		"sim_kops":           ratio(n, o.window.Seconds()) / 1e3,
		"sim_mean_us":        latencySum(o.m.lat).Micros() / n,
		"read_amp":           o.io.ReadAmplification(),
	}
	q := o.m.quantilesUs(0.5, 0.99, 0.999)
	info = map[string]float64{
		"wall_ns_per_op": o.m.wallNsPerOp(),
		"wall_setup_s":   median(o.setupWall),
		"sim_p50_us":     q[0],
		"sim_p99_us":     q[1],
		"sim_p999_us":    q[2],
	}
	return ms, info, nil
}

// tracedRun replays the workload's rounds twice on fresh systems, untraced
// and then traced, and derives the per-layer metrics: counters from the
// first pass, the tracer's phase counts and the CPU profiles from the
// second, and the tracing overhead from both.
func tracedRun(w workloadDef, cfg runConfig, stderr io.Writer) (metricSet, error) {
	u, err := measure(w, cfg, w.rounds)
	if err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder()
	rec.SetMaxEvents(0)
	cfg.rec = rec
	t, err := measure(w, cfg, w.rounds)
	if err != nil {
		return nil, err
	}
	if latencySum(u.m.lat) != latencySum(t.m.lat) || u.io != t.io {
		return nil, errors.New("the traced replay simulated different results from the untraced one")
	}

	n := float64(len(u.m.lat))
	channel, dma, ring := u.utilization()
	ms := metricSet{
		"pagecache.hit_ratio":          u.pc.HitRatio(),
		"pagecache.evictions_per_op":   float64(u.pc.Evictions) / n,
		"core.fine_hit_ratio":          u.fine.HitRatio(),
		"core.fine_reads_per_op":       float64(u.io.FineReads) / n,
		"vfs.block_reads_per_op":       float64(u.io.BlockReads) / n,
		"vfs.device_writes_per_op":     float64(u.io.Writes) / n,
		"vfs.write_amp":                ratio(float64(u.io.BytesWritten), float64(u.written)),
		"nand.channel_util":            channel,
		"ssd.dma_util":                 dma,
		"nvme.ring_util":               ring,
		"kv.log_write_amp":             ratio(float64(u.kv.BytesWritten), float64(u.written)),
		"kv.compactions_per_kop":       1000 * float64(u.kv.Compactions) / n,
		"index.block_reads_per_lookup": ratio(float64(u.idx.CacheMisses), float64(u.idx.Lookups)),
		"index.block_cache_hit_ratio":  u.idx.CacheHitRate(),
		"index.bloom_fp_rate":          u.idx.BloomFPRate(),
		"index.flushes_per_kop":        1000 * float64(u.idx.Flushes) / n,
	}
	for _, s := range stageNames {
		ms["stage."+s.String()+".sim_us_per_op"] = u.stages[s].Micros() / n
	}

	phases, err := phaseCounts(rec)
	if err != nil {
		return nil, err
	}
	var gc float64
	if h := rec.PhaseHistogram(telemetry.TrackFTL + "/gc"); h != nil {
		gc = h.Sum().Micros()
	}
	ms["nand.reads_per_op"] = phases.sum("nand/d*/tR") / n
	ms["nand.programs_per_op"] = phases.sum("nand/d*/tPROG") / n
	ms["ftl.gc_runs_per_kop"] = 1000 * phases.sum("ftl/gc") / n
	ms["ftl.gc_sim_us_per_op"] = gc / n
	ms["ssd.fine_cmds_per_op"] = phases.sum("ssd/fine.firmware") / n
	ms["ssd.block_cmds_per_op"] = phases.sum("ssd/read.firmware", "ssd/write.dma") / n
	ms["nvme.cmds_per_op"] = phases.prefix("nvme/") / n
	ms["blockdev.cmds_per_op"] = phases.sum("block/read", "block/write") / n

	var samples []sample
	for _, p := range t.m.profiles {
		s, err := decodeProfile(p)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	byLayer, count := attribute(samples)
	var total int64
	for _, l := range hostLayers {
		ms[l+".host_ns_per_op"] = float64(byLayer[l]) / n
		total += byLayer[l]
	}
	traced := t.m.meanNsPerOp()
	fmt.Fprintf(stderr, "benchmark: %s: %d profile samples; layers sum to %.0f ns/op of the traced %.0f ns/op\n",
		w.name, count, float64(total)/n, traced)
	ms["telemetry.tracing_overhead_pct"] = 100 * (t.m.hostNsPerOp()/u.m.hostNsPerOp() - 1)
	return ms, nil
}

// phases are the tracer's span counts by "track/name", per-die and
// per-channel NAND tracks folded ("nand/d*/tR").
type phases map[string]float64

func phaseCounts(rec *telemetry.Recorder) (phases, error) {
	p := phases{}
	for _, row := range rec.Breakdown().Rows {
		n, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracer breakdown row %v: %w", row, err)
		}
		p[row[0]] += float64(n)
	}
	return p, nil
}

func (p phases) sum(keys ...string) float64 {
	var s float64
	for _, k := range keys {
		s += p[k]
	}
	return s
}

func (p phases) prefix(pre string) float64 {
	var s float64
	for k, v := range p {
		if strings.HasPrefix(k, pre) {
			s += v
		}
	}
	return s
}

// residentMiB reads the process's resident set size.
func residentMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set size needs /proc/self/status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}
