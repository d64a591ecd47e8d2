package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pipette/internal/telemetry"
)

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound. BENCHMARK.json at the
// repository root repeats these tables, and main_test.go keeps the two in
// step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator sees, measured with
// tracing off. The host metrics time the simulator itself; the sim metrics
// are the modelled system's virtual-time results, exact for a given seed.
// Each sim and memory bound is at least three times the spread between
// quartiles of ten runs on a 2-vCPU host, every run with its own seed;
// kv-update's synchronous flushes, a few per round at 158 ms each, make its
// latency the widest of the sim metrics. Host time gets 25%, the widest
// bound BENCHMARK.json allows: under a neighbour's heavy load, ten runs'
// median moved 14% even on the reference clock (calibrate.go).
//
// Latency is reported as a mean, not as quantiles: with one client the
// device is idle at every request, so closed-loop latencies take a handful
// of exact values, one per path (fine-cache hit, page-cache hit, device
// read), and every quantile sits on one of them whatever the seed. The
// exact p50/p99/p999 are still printed on the run's header line.
var endToEnd = []metricSpec{
	{"host_ns_per_op", "ns", "lower", 0.25},
	{"host_allocs_per_op", "allocs", "lower", 0.05},
	{"host_bytes_per_op", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.06},
	{"sim_kops", "kops/s", "higher", 0.06},
	{"sim_mean_us", "us", "lower", 0.10},
	{"read_amp", "ratio", "lower", 0.02},
}

// stageNames are the StageAccount stages reported per request. Retry and
// other stay out: without an armed fault profile both are zero, and the
// run fails if either is not.
var stageNames = []telemetry.Stage{
	telemetry.StageSyscall, telemetry.StageCache, telemetry.StageQueue,
	telemetry.StageConstruct, telemetry.StageRing, telemetry.StageFirmware,
	telemetry.StageNAND, telemetry.StageDMA, telemetry.StageProgram,
	telemetry.StageWriteback, telemetry.StageCopyout,
}

// hostLayers are the buckets CPU-profile samples are charged to; see
// layerOf for the rules.
var hostLayers = []string{
	"nand", "ftl", "ssd", "hmb", "nvme", "blockdev", "pagecache", "extfs",
	"vfs", "core", "slab", "kv", "index", "sim", "telemetry", "resource",
	"bench", "baseline", "tracer", "gc",
}

// perLayer are the numbers of the traced run. The comment on each group
// names the end-to-end metric it should move and on which workload.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		// sim_mean_us and read_amp on block-uniform.
		{Name: "pagecache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "pagecache.evictions_per_op", Unit: "1/op", Better: "lower"},
		// sim_mean_us and read_amp on fine-zipf.
		{Name: "core.fine_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.fine_reads_per_op", Unit: "1/op", Better: "lower"},
		// read_amp on block-uniform.
		{Name: "vfs.block_reads_per_op", Unit: "1/op", Better: "lower"},
		// Device writes per op and device bytes written per user byte:
		// sim_mean_us and sim_kops on kv-update, zero on the read-only
		// workloads.
		{Name: "vfs.device_writes_per_op", Unit: "1/op", Better: "lower"},
		{Name: "vfs.write_amp", Unit: "ratio", Better: "lower"},
	}
	// sim_mean_us where the stage is largest: queue/ring on open-mixc,
	// cache/construct on fine-zipf, nand/dma on block-uniform,
	// program/writeback on kv-update. On the engine workloads they sum to
	// the mean latency.
	for _, s := range stageNames {
		m = append(m, metricSpec{Name: "stage." + s.String() + ".sim_us_per_op", Unit: "us/op", Better: "lower"})
	}
	m = append(m,
		// sim_mean_us on open-mixc, where requests queue for them.
		metricSpec{Name: "nand.channel_util", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "ssd.dma_util", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "nvme.ring_util", Unit: "ratio", Better: "lower"},
		// sim_mean_us, sim_kops and host_ns_per_op on kv-update.
		metricSpec{Name: "kv.log_write_amp", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "kv.compactions_per_kop", Unit: "1/kop", Better: "lower"},
		metricSpec{Name: "index.block_reads_per_lookup", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "index.block_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "index.bloom_fp_rate", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "index.flushes_per_kop", Unit: "1/kop", Better: "lower"},
		// From the tracer's phase histograms: read_amp and sim_kops on
		// block-uniform and fine-zipf, sim_kops on kv-update.
		metricSpec{Name: "nand.reads_per_op", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "nand.programs_per_op", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "ftl.gc_runs_per_kop", Unit: "1/kop", Better: "lower"},
		metricSpec{Name: "ftl.gc_sim_us_per_op", Unit: "us/op", Better: "lower"},
		metricSpec{Name: "ssd.fine_cmds_per_op", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "ssd.block_cmds_per_op", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "nvme.cmds_per_op", Unit: "1/op", Better: "lower"},
		metricSpec{Name: "blockdev.cmds_per_op", Unit: "1/op", Better: "lower"},
	)
	// host_ns_per_op where the layer's share of host time is largest:
	// nand/ftl/blockdev on block-uniform; pagecache/hmb/slab/telemetry/tracer
	// on fine-zipf; kv/index/vfs/core/bench/gc on kv-update; sim on
	// open-mixc; ssd/nvme, under 5% everywhere, on kv-update and open-mixc.
	for _, l := range hostLayers {
		m = append(m, metricSpec{Name: l + ".host_ns_per_op", Unit: "ns/op", Better: "lower"})
	}
	return append(m, metricSpec{Name: "telemetry.tracing_overhead_pct", Unit: "%", Better: "lower"})
}()

// metricValue is one reported number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and checks them against a spec table.
type metricSet map[string]float64

// export returns every metric of specs with its unit, or an error naming the
// first one the run did not produce or produced as a non-finite number.
func (ms metricSet) export(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := ms[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a sample; the input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// by the same rule as Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), so spreads printed here match that computation. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// isHost reports whether a metric is measured on the host clock or heap,
// and so carries run-to-run noise that sim metrics do not.
func isHost(name string) bool {
	return strings.HasPrefix(name, "host_") || name == "setup_s" || name == "rss_mb"
}
