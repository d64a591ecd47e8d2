package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pipette"
	"pipette/internal/baseline"
	"pipette/internal/bench"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// workloadDef is one benchmark input. A run is rounds rounds, each on a
// fresh system with its own request stream: set-up (building the system,
// loading it, replaying warmup requests) and then the timed phase. Every
// round replays perSecond*seconds/rounds measured requests, sized so a
// run's timed phases take about -seconds on a 2-vCPU host.
type workloadDef struct {
	name      string
	why       string
	warmup    int
	perSecond int
	rounds    int
	round     func(c runConfig, r int, m *meter) (*outcome, error)
}

// workloads are the benchmark's inputs. Three run the Pipette engine at
// quick-scale geometry through bench.Run / bench.RunOpenLoop, the path
// pipette-bench takes; kv-update runs the KV store through the pipette
// facade.
var workloads = []workloadDef{
	{
		name:      "fine-zipf",
		why:       "Table 1 mix D (90% 128 B reads), zipfian 0.8: the paper's headline regime; the hot set fits the caches, so few requests reach the device",
		warmup:    1_000_000,
		perSecond: 1_500_000,
		rounds:    3,
		round: func(c runConfig, r int, m *meter) (*outcome, error) {
			return engineRound(c, r, m, 3, workload.Zipfian, nil)
		},
	},
	{
		name:      "block-uniform",
		why:       "mix A (all 4 KiB reads), uniform over 3x the page cache: the vfs-to-nand block path; the fine path idles, the control for fine-path changes",
		warmup:    150_000,
		perSecond: 210_000,
		rounds:    3,
		round: func(c runConfig, r int, m *meter) (*outcome, error) {
			return engineRound(c, r, m, 0, workload.Uniform, nil)
		},
	},
	{
		name:      "kv-update",
		why:       "YCSB-A on the LSM-indexed KV store: writes beside reads, with log appends, writeback, FTL programs, flushes and compaction",
		warmup:    0,
		perSecond: 90_000,
		rounds:    9,
		round:     kvRound,
	},
	{
		name:      "open-mixc",
		why:       "open-loop Poisson arrivals at 150k ops/s (two thirds of saturation), depth 16, mix C uniform, contention on: the only workload where queueing sets latency",
		warmup:    150_000,
		perSecond: 240_000,
		rounds:    3,
		round: func(c runConfig, r int, m *meter) (*outcome, error) {
			return engineRound(c, r, m, 2, workload.Uniform, &openLoop{rate: 150_000, depth: 16})
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig sizes the rounds of one run.
type runConfig struct {
	scale    bench.Scale // geometry: file, page cache, fine cache, KV records
	seed     uint64
	warmup   int
	requests int                 // measured requests per round
	rec      *telemetry.Recorder // non-nil: trace the timed phases into it and profile them
}

// roundSeed gives each round its own request stream.
func roundSeed(seed uint64, round int) uint64 { return seed + uint64(round)<<32 }

// measure runs rounds of w on fresh systems and sums what they measured.
// A round's set-up is put on the reference clock with the median factor of
// the chunks timed right after it.
func measure(w workloadDef, c runConfig, rounds int) (*outcome, error) {
	m := newMeter(c.requests, rounds)
	m.profiling = c.rec != nil
	total := &outcome{m: m}
	for r := 0; r < rounds; r++ {
		runtime.GC() // the previous round's system is garbage now
		chunks := len(m.scales)
		o, err := w.round(c, r, m)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		total.add(o)
		scale := median(m.scales[chunks:])
		for _, s := range o.setupWall {
			total.setup = append(total.setup, s*scale)
		}
	}
	return total, nil
}

// outcome is what rounds measured over their timed phases.
type outcome struct {
	m         *meter
	setupWall []float64 // wall seconds per round's set-up
	setup     []float64 // the same on the reference clock
	window    sim.Time  // timed phases in virtual time
	io        metrics.IO
	pc, fine  metrics.Cache
	stages    [telemetry.NumStages]sim.Time
	busy      resourceBusy
	written   uint64 // bytes the workload asked to write
	kv        kv.Stats
	idx       index.Stats
}

func (o *outcome) add(r *outcome) {
	o.setupWall = append(o.setupWall, r.setupWall...)
	o.window += r.window
	o.io = addIO(o.io, r.io)
	o.pc = addCache(o.pc, r.pc)
	o.fine = addCache(o.fine, r.fine)
	for i := range o.stages {
		o.stages[i] += r.stages[i]
	}
	o.busy.channel += r.busy.channel
	o.busy.dma += r.busy.dma
	o.busy.ring += r.busy.ring
	o.busy.channels = r.busy.channels
	o.written += r.written
	o.kv.BytesWritten += r.kv.BytesWritten
	o.kv.Compactions += r.kv.Compactions
	o.idx.Lookups += r.idx.Lookups
	o.idx.Flushes += r.idx.Flushes
	o.idx.BloomChecks += r.idx.BloomChecks
	o.idx.BloomNegative += r.idx.BloomNegative
	o.idx.BloomFalsePos += r.idx.BloomFalsePos
	o.idx.CacheHits += r.idx.CacheHits
	o.idx.CacheMisses += r.idx.CacheMisses
}

// utilization is the busy share of the timed phases of the NAND channels
// (averaged over channels), the PCIe DMA link and the NVMe ring.
func (o *outcome) utilization() (channel, dma, ring float64) {
	w := float64(o.window)
	return ratio(float64(o.busy.channel), w*float64(o.busy.channels)),
		ratio(float64(o.busy.dma), w), ratio(float64(o.busy.ring), w)
}

// stackConfig copies the sizing fields of the harness's per-scale stack
// (page cache, fine-cache arena and overflow, page-cache floor) onto the
// default stack, as pipette-bench does for its experiments.
func stackConfig(s bench.Scale) baseline.StackConfig {
	cfg := baseline.DefaultStackConfig(s.FileSize())
	cfg.VFS.PageCachePages = s.PageCachePages
	cfg.Core.HMB.DataBytes = s.FGRCDataBytes
	cfg.Core.OverflowMaxBytes = s.FGRCDataBytes
	cfg.Core.PageCacheFloorPages = s.PageCachePages / 8
	return cfg
}

// openLoop turns a replay into an open-loop one with the qdepth
// experiment's contention settings: the PCIe link serialises transfers and
// the NVMe fetch engine arbitrates submissions.
type openLoop struct {
	rate  float64
	depth int
}

// arrivalSeed separates the arrival stream from the request stream.
const arrivalSeed = 0xa221

// engineRound replays Table 1 mix idx (0 = A ... 4 = E) against the
// Pipette engine, closed loop with one client unless ol is set.
func engineRound(c runConfig, r int, m *meter, idx int, dist workload.Dist, ol *openLoop) (*outcome, error) {
	seed := roundSeed(c.seed, r)
	mix := workload.Mixes(c.scale.FileSize(), 4096, dist, seed)[idx]
	st, err := newStream(mix, c.warmup+c.requests)
	if err != nil {
		return nil, err
	}
	cfg := stackConfig(c.scale)
	var arr *arrivals
	if ol != nil {
		cfg.SSD.LinkArbitration = true
		cfg.NVMe.Arbitration = 100 * sim.Nanosecond
		if arr, err = newArrivals(ol.rate, seed^arrivalSeed, c.warmup+c.requests); err != nil {
			return nil, err
		}
	}

	o := &outcome{}
	t0 := time.Now()
	e, err := baseline.NewPipette(cfg)
	if err != nil {
		return nil, err
	}
	p := &probe{Engine: e, warmup: c.warmup, m: m, want: make([]byte, 4096)}
	var (
		stages0 telemetry.StageSnapshot
		busy0   resourceBusy
	)
	m.onBegin = func() {
		o.setupWall = append(o.setupWall, time.Since(t0).Seconds())
		stages0, busy0 = e.Stages().Snapshot(), busyOf(e.Resources())
		if c.rec != nil {
			e.SetTracer(c.rec)
		}
	}
	first := len(m.lat)
	var res *bench.Result
	if ol == nil {
		res, err = bench.Run(p, st, c.requests, bench.RunOpts{Warmup: c.warmup})
	} else {
		opts := bench.OpenLoopOpts{Arrivals: arr, Depth: ol.depth, Offered: ol.rate}
		if c.warmup > 0 {
			_, err = bench.RunOpenLoop(p, st, c.warmup, opts)
		}
		if err == nil {
			// RunOpenLoop starts its event clock at zero; the arrivals pick up
			// at the warm-up's last arrival, and the probe pairs the k-th
			// measured call with the k-th measured arrival.
			arr.restart()
			p.arrivals = arr.at[c.warmup:]
			res, err = bench.RunOpenLoop(p, st, c.requests, opts)
		}
	}
	m.end()
	if err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	lat := m.lat[first:]
	if len(lat) != c.requests {
		return nil, fmt.Errorf("measured %d requests, want %d", len(lat), c.requests)
	}
	if res.Lost != 0 || res.Rejected != 0 {
		return nil, fmt.Errorf("%d requests lost and %d rejected", res.Lost, res.Rejected)
	}
	sum := latencySum(lat)
	if h := res.Hist.Sum(); h != sum {
		return nil, fmt.Errorf("recorded latencies sum to %v, the engine's histogram to %v", sum, h)
	}
	if err := o.setStages(stages0, e.Stages().Snapshot(), sum); err != nil {
		return nil, err
	}
	o.window = p.last - p.first
	o.busy = busyOf(e.Resources()).sub(busy0)
	o.io, o.pc, o.fine = res.Snapshot.IO, res.Snapshot.PageCache, res.Snapshot.FineCache
	return o, nil
}

// setStages keeps the per-stage virtual time of the timed phase and checks
// conservation: stages sum to the requests' end-to-end time, which equals
// the recorded latencies (want; 0 skips that comparison), and the
// fault-only stages stay empty.
func (o *outcome) setStages(s0, s1 telemetry.StageSnapshot, want sim.Time) error {
	var sum sim.Time
	for i := range o.stages {
		o.stages[i] = s1.Totals[i] - s0.Totals[i]
		sum += o.stages[i]
	}
	elapsed := s1.Elapsed - s0.Elapsed
	if sum != elapsed {
		return fmt.Errorf("stage totals %v do not sum to the requests' time %v", sum, elapsed)
	}
	if want != 0 && elapsed != want {
		return fmt.Errorf("stage account holds %v of request time, the recorded latencies %v", elapsed, want)
	}
	for _, s := range []telemetry.Stage{telemetry.StageRetry, telemetry.StageOther} {
		if o.stages[s] != 0 {
			return fmt.Errorf("stage %s holds %v with no faults armed", s, o.stages[s])
		}
	}
	return nil
}

// resourceBusy is cumulative busy virtual time of the NAND channels
// (summed over channels), the PCIe DMA link and the NVMe ring.
type resourceBusy struct {
	channel, dma, ring sim.Time
	channels           int
}

func busyOf(tr *resource.Tracker) resourceBusy {
	var b resourceBusy
	for i := 0; i < tr.Len(); i++ {
		tl := tr.At(i)
		switch name := tl.Name(); {
		case name == "pcie.dma":
			b.dma = tl.Busy()
		case name == "nvme.ring":
			b.ring = tl.Busy()
		case isChannel(name):
			b.channel += tl.Busy()
			b.channels++
		}
	}
	return b
}

func (b resourceBusy) sub(a resourceBusy) resourceBusy {
	return resourceBusy{channel: b.channel - a.channel, dma: b.dma - a.dma, ring: b.ring - a.ring, channels: b.channels}
}

// isChannel matches the NAND channel timelines ("nand.ch3"), not the
// per-die ones ("nand.ch3.w1").
func isChannel(name string) bool {
	digits, ok := strings.CutPrefix(name, "nand.ch")
	if !ok || digits == "" {
		return false
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// The KV workload's value rule matches the kv experiment's: 64..512 B
// values sized from the key, content derived from key and version, so any
// Get can be checked against the version the benchmark last wrote.
const (
	kvAvgRecordBytes = 320
	kvValueSpan      = 449
	kvMinValueBytes  = 64
	kvSeed           = 0x5eed1e
	kvTickEvery      = 256 // ops between MaintenanceTick calls
	kvSegmentBytes   = 1 << 20
)

func kvValueSize(key uint64) int {
	return kvMinValueBytes + int(sim.Mix64(key^kvSeed)%kvValueSpan)
}

// kvValue renders the value of (key, ver) into dst, which must hold 512 B.
func kvValue(dst []byte, key uint64, ver uint32) []byte {
	dst = dst[:kvValueSize(key)]
	seed := sim.Mix64(key*0x9e3779b97f4a7c15 ^ uint64(ver)<<32)
	for i := range dst {
		if i&7 == 0 && i > 0 {
			seed = sim.Mix64(seed)
		}
		dst[i] = byte(seed >> (8 * (i & 7)))
	}
	return dst
}

// kvRound loads the LSM-indexed store through the pipette facade and
// replays YCSB-A over it, checking every Get against the expected version.
func kvRound(c runConfig, r int, m *meter) (*outcome, error) {
	records := c.scale.KVRecords
	ycsb, err := workload.StandardYCSB("A", records, roundSeed(c.seed, r))
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewYCSB(ycsb)
	if err != nil {
		return nil, err
	}
	// Each op is key<<1 | update, drawn before the clock starts; keys are
	// rendered once so the timed loop allocates nothing of its own.
	ops := make([]uint32, c.requests)
	for i := range ops {
		req := gen.Next()
		if req.Op != workload.OpRead && req.Op != workload.OpUpdate {
			return nil, fmt.Errorf("YCSB-A drew a %s", req.Op)
		}
		ops[i] = uint32(req.Key) << 1
		if req.Op == workload.OpUpdate {
			ops[i] |= 1
		}
	}
	keys := make([]string, records)
	for k := range keys {
		keys[k] = fmt.Sprintf("user%010d", k)
	}
	ver := make([]uint32, records)
	val := make([]byte, 512)
	want := make([]byte, 512)

	o := &outcome{}
	t0 := time.Now()
	dataset := int64(records) * kvAvgRecordBytes
	sys, err := pipette.New(pipette.Options{
		CapacityBytes:  4 * dataset,
		PageCacheBytes: dataset / 8,
		FineCacheBytes: int(dataset / 8),
	})
	if err != nil {
		return nil, err
	}
	store, err := sys.OpenKV(pipette.KVOptions{Index: "lsm", SegmentBytes: kvSegmentBytes})
	if err != nil {
		return nil, err
	}
	for k := range keys {
		if err := store.Put(keys[k], kvValue(val, uint64(k), 0)); err != nil {
			return nil, fmt.Errorf("load %d: %w", k, err)
		}
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	o.setupWall = append(o.setupWall, time.Since(t0).Seconds())

	var (
		rep0   pipette.Report
		busy0  resourceBusy
		kv0    kv.Stats
		idx0   index.Stats
		upkeep sim.Time // virtual time spent in MaintenanceTick
	)
	m.onBegin = func() {
		rep0, busy0 = sys.Report(), busyOf(sys.Resources())
		kv0, idx0 = store.Stats(), store.IndexStats()
		if c.rec != nil {
			sys.SetTracer(c.rec)
		}
	}
	first := len(m.lat)
	m.begin()
	start := sys.Now()
	now := start
	for i, op := range ops {
		key := uint64(op >> 1)
		if op&1 != 0 {
			ver[key]++
			v := kvValue(val, key, ver[key])
			o.written += uint64(len(v))
			err = store.Put(keys[key], v)
		} else {
			var got []byte
			if got, err = store.Get(keys[key]); err == nil && !bytes.Equal(got, kvValue(want, key, ver[key])) {
				err = fmt.Errorf("wrong value for key %d version %d", key, ver[key])
			}
		}
		if err != nil {
			break
		}
		done := sys.Now()
		m.observe(done - now)
		now = done
		if i%kvTickEvery == kvTickEvery-1 {
			sys.MaintenanceTick()
			done = sys.Now()
			upkeep += done - now
			now = done
		}
	}
	m.end()
	if err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	if n := store.Len(); n != len(keys) {
		return nil, fmt.Errorf("store holds %d keys, want %d", n, len(keys))
	}
	o.window = now - start
	if sum := latencySum(m.lat[first:]); sum+upkeep != o.window {
		return nil, fmt.Errorf("recorded latencies %v plus maintenance %v differ from the elapsed %v", sum, upkeep, o.window)
	}
	rep1 := sys.Report()
	// The facade's Gets and Puts each issue several VFS requests, which the
	// stage account times one by one; their sum is checked against itself.
	if err := o.setStages(rep0.Stages, rep1.Stages, 0); err != nil {
		return nil, err
	}
	o.busy = busyOf(sys.Resources()).sub(busy0)
	o.io = subIO(rep1.IO, rep0.IO)
	o.pc = subCache(rep1.PageCache, rep0.PageCache)
	o.fine = subCache(rep1.FineCache, rep0.FineCache)
	kv1, idx1 := store.Stats(), store.IndexStats()
	o.kv = kv.Stats{
		BytesWritten: kv1.BytesWritten - kv0.BytesWritten,
		Compactions:  kv1.Compactions - kv0.Compactions,
	}
	o.idx = index.Stats{
		Lookups:       idx1.Lookups - idx0.Lookups,
		Flushes:       idx1.Flushes - idx0.Flushes,
		BloomChecks:   idx1.BloomChecks - idx0.BloomChecks,
		BloomNegative: idx1.BloomNegative - idx0.BloomNegative,
		BloomFalsePos: idx1.BloomFalsePos - idx0.BloomFalsePos,
		CacheHits:     idx1.CacheHits - idx0.CacheHits,
		CacheMisses:   idx1.CacheMisses - idx0.CacheMisses,
	}
	return o, nil
}

func addIO(a, b metrics.IO) metrics.IO {
	return metrics.IO{
		BytesRequested:   a.BytesRequested + b.BytesRequested,
		BytesTransferred: a.BytesTransferred + b.BytesTransferred,
		BytesWritten:     a.BytesWritten + b.BytesWritten,
		BlockReads:       a.BlockReads + b.BlockReads,
		FineReads:        a.FineReads + b.FineReads,
		Writes:           a.Writes + b.Writes,
	}
}

func subIO(a, b metrics.IO) metrics.IO {
	return metrics.IO{
		BytesRequested:   a.BytesRequested - b.BytesRequested,
		BytesTransferred: a.BytesTransferred - b.BytesTransferred,
		BytesWritten:     a.BytesWritten - b.BytesWritten,
		BlockReads:       a.BlockReads - b.BlockReads,
		FineReads:        a.FineReads - b.FineReads,
		Writes:           a.Writes - b.Writes,
	}
}

func addCache(a, b metrics.Cache) metrics.Cache {
	return metrics.Cache{
		Hits:       a.Hits + b.Hits,
		Accesses:   a.Accesses + b.Accesses,
		Insertions: a.Insertions + b.Insertions,
		Evictions:  a.Evictions + b.Evictions,
		Bypasses:   a.Bypasses + b.Bypasses,
	}
}

func subCache(a, b metrics.Cache) metrics.Cache {
	return metrics.Cache{
		Hits:       a.Hits - b.Hits,
		Accesses:   a.Accesses - b.Accesses,
		Insertions: a.Insertions - b.Insertions,
		Evictions:  a.Evictions - b.Evictions,
		Bypasses:   a.Bypasses - b.Bypasses,
	}
}
