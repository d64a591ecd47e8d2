// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§4) — Figures 1, 6, 7, 8, 9 and Tables
// 2, 3, 4 — plus ablation sweeps over Pipette's design choices. Each
// experiment builds fresh per-engine systems, replays the paper's workload,
// and prints a paper-style table.
//
// Absolute numbers depend on the latency model (see EXPERIMENTS.md for the
// calibration discussion); the harness is judged on shape: who wins, by
// roughly what factor, where the crossovers fall.
package bench

import (
	"bytes"
	"errors"
	"fmt"

	"pipette/internal/baseline"
	"pipette/internal/fault"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/report"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// Scale sets the experiment size. Paper scale is 2.5 M requests over a
// ~2.9 GiB file (the file size Table 2's block-I/O traffic implies); the
// quick scale preserves every ratio (requests per page, cache fractions) at
// 1/24 the size so shapes are unchanged.
type Scale struct {
	Name     string
	Requests int

	FilePages      uint64 // synthetic file size in 4 KiB pages
	PageCachePages int    // host page-cache budget
	FGRCDataBytes  int    // fine-grained read cache arena

	RecTableBytes int64  // recommender embedding store
	GraphNodes    uint64 // social-graph size
	AppRequests   int    // requests for the real-app experiments

	// Figure 8 sweep: LatencyFilePages is a hot region small enough that
	// the fine cache holds every range at every request size, while
	// LatencyPCPages keeps the page cache an order of magnitude smaller —
	// the memory regime where the paper's steady-state latencies (~2 us
	// Pipette vs ~67 us block) are reproducible.
	LatencySizes     []int
	LatencyFilePages uint64
	LatencyPCPages   int
	LatencyRequests  int
	LatencyWarmup    int

	// KV experiment: records preloaded into the log-structured store and
	// operations replayed per YCSB workload.
	KVRecords  uint64
	KVRequests int

	// qdepth experiment: the open-loop saturation sweep. QDepths are the
	// admission queue-depth bounds (max in-flight requests), QDepthRates
	// the offered Poisson arrival rates in ops/s (ascending, so the knee
	// search walks the curve left to right), QDepthRequests the requests
	// per cell.
	QDepths        []int
	QDepthRates    []float64
	QDepthRequests int

	// cluster experiment: the sharded serving tier. ClusterShards members,
	// each a private SSD stack sized for ClusterShardBytes of live records;
	// ClusterReplicas are the replication factors swept, ClusterSkews the
	// hot tenant's Zipf thetas (0 = uniform), ClusterTenants the tenant
	// count, ClusterRecords the records preloaded per tenant,
	// ClusterRequests the replay length per cell, ClusterRate the offered
	// Poisson arrival rate in ops/s, ClusterDepth/ClusterQueue the
	// per-shard in-flight and FIFO bounds, and ClusterTenantRate the
	// per-tenant token-bucket rate (ops/s).
	ClusterShards     int
	ClusterReplicas   []int
	ClusterSkews      []float64
	ClusterTenants    int
	ClusterRecords    uint64
	ClusterRequests   int
	ClusterRate       float64
	ClusterDepth      int
	ClusterQueue      int
	ClusterTenantRate float64
	ClusterShardBytes int64

	// Fault injection: Fault is empty by default (the Nop injector, zero
	// overhead, byte-identical output); the faults experiment overrides it
	// per sweep level. FaultSeed drives the deterministic decision streams.
	Fault     fault.Profile
	FaultSeed uint64
}

// FullScale mirrors the paper.
func FullScale() Scale {
	return Scale{
		Name:              "full",
		Requests:          2_500_000,
		FilePages:         761_242,
		PageCachePages:    256 << 10, // 1 GiB
		FGRCDataBytes:     256 << 20,
		RecTableBytes:     4 << 30,
		GraphNodes:        24 << 20,
		AppRequests:       2_500_000,
		LatencySizes:      []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		LatencyFilePages:  12 << 10,
		LatencyPCPages:    1 << 10,
		LatencyRequests:   100_000,
		LatencyWarmup:     200_000,
		KVRecords:         1_000_000,
		KVRequests:        1_000_000,
		QDepths:           []int{1, 8, 64, 256},
		QDepthRates:       []float64{25_000, 100_000, 400_000, 1_600_000, 6_400_000},
		QDepthRequests:    200_000,
		ClusterShards:     16,
		ClusterReplicas:   []int{1, 2, 3},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    8,
		ClusterRecords:    65_536,
		ClusterRequests:   200_000,
		ClusterRate:       150_000,
		ClusterDepth:      32,
		ClusterQueue:      128,
		ClusterTenantRate: 40_000,
		ClusterShardBytes: 32 << 20,
		FaultSeed:         0x5eed,
	}
}

// QuickScale is the default: ~1/24 of the paper with ratios preserved.
func QuickScale() Scale {
	return Scale{
		Name:              "quick",
		Requests:          104_000,
		FilePages:         31_718,
		PageCachePages:    10 << 10, // 40 MiB
		FGRCDataBytes:     12 << 20,
		RecTableBytes:     768 << 20,
		GraphNodes:        2 << 20,
		AppRequests:       180_000,
		LatencySizes:      []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		LatencyFilePages:  768,
		LatencyPCPages:    96,
		LatencyRequests:   5_000,
		LatencyWarmup:     10_000,
		KVRecords:         60_000,
		KVRequests:        60_000,
		QDepths:           []int{1, 8, 64},
		QDepthRates:       []float64{25_000, 100_000, 400_000, 1_600_000, 6_400_000},
		QDepthRequests:    20_000,
		ClusterShards:     8,
		ClusterReplicas:   []int{1, 2, 3},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    4,
		ClusterRecords:    8_192,
		ClusterRequests:   20_000,
		ClusterRate:       60_000,
		ClusterDepth:      16,
		ClusterQueue:      64,
		ClusterTenantRate: 20_000,
		ClusterShardBytes: 8 << 20,
		FaultSeed:         0x5eed,
	}
}

// TinyScale is for tests of the harness itself.
func TinyScale() Scale {
	return Scale{
		Name:              "tiny",
		Requests:          6_000,
		FilePages:         1_830,
		PageCachePages:    600,
		FGRCDataBytes:     1 << 20,
		RecTableBytes:     48 << 20,
		GraphNodes:        160 << 10,
		AppRequests:       12_000,
		LatencySizes:      []int{8, 128, 1024, 4096},
		LatencyFilePages:  48,
		LatencyPCPages:    8,
		LatencyRequests:   400,
		LatencyWarmup:     1_200,
		KVRecords:         4_000,
		KVRequests:        3_000,
		QDepths:           []int{1, 16},
		QDepthRates:       []float64{50_000, 400_000, 3_200_000, 12_800_000},
		QDepthRequests:    2_500,
		ClusterShards:     4,
		ClusterReplicas:   []int{1, 2},
		ClusterSkews:      []float64{0, 0.99},
		ClusterTenants:    2,
		ClusterRecords:    2_048,
		ClusterRequests:   1_500,
		ClusterRate:       30_000,
		ClusterDepth:      8,
		ClusterQueue:      16,
		ClusterTenantRate: 6_000,
		ClusterShardBytes: 4 << 20,
		FaultSeed:         0x5eed,
	}
}

// FileSize reports the synthetic file size in bytes.
func (s Scale) FileSize() int64 { return int64(s.FilePages) * 4096 }

// stackConfig builds the per-engine system configuration for this scale.
func (s Scale) stackConfig(fileSize int64) baseline.StackConfig {
	cfg := baseline.DefaultStackConfig(fileSize)
	cfg.SetCaches(s.PageCachePages, s.FGRCDataBytes)
	cfg.FaultProfile = s.Fault
	cfg.FaultSeed = s.FaultSeed
	return cfg
}

// newEngine builds the idx'th engine of EngineNames over a private system.
// Cells construct their engine themselves so expensive setup (NAND preload)
// parallelizes with everything else.
func newEngine(idx int, cfg baseline.StackConfig) (baseline.Engine, error) {
	var (
		e   baseline.Engine
		err error
	)
	switch idx {
	case 0:
		if e, err = baseline.NewBlockIO(cfg); err != nil {
			return nil, fmt.Errorf("bench: block i/o: %w", err)
		}
	case 1:
		e, err = baseline.NewTwoBSSD(cfg, baseline.MMIO)
	case 2:
		e, err = baseline.NewTwoBSSD(cfg, baseline.DMA)
	case 3:
		e, err = baseline.NewPipetteNoCache(cfg)
	case 4:
		e, err = baseline.NewPipette(cfg)
	default:
		return nil, fmt.Errorf("bench: no engine %d", idx)
	}
	if err != nil {
		return nil, err
	}
	if fr := armedFlight(); fr != nil {
		e.SetTracer(fr)
	}
	return e, nil
}

// RunOpts tunes one replay. The arrival process is the only scheduling
// setting: nil Arrivals is a closed loop with one client, where each request
// arrives the moment the previous one completes.
type RunOpts struct {
	// Warmup requests are replayed before measurement starts. Closed loop
	// only: an open-loop warm-up is a separate call.
	Warmup      int
	VerifyEvery int // verify read contents every N measured requests (0 = off)
	// Sampler, when set, is ticked with the virtual completion time after
	// every measured request, producing the time-series CSV.
	Sampler *telemetry.Sampler
	// TolerateMediaErrors counts uncorrectable media errors as lost
	// requests and keeps replaying instead of failing the run — the right
	// semantics when a fault profile is armed. Off, any error is fatal.
	TolerateMediaErrors bool

	// Arrivals, when set, makes the replay open loop: requests arrive on
	// its schedule regardless of completions.
	Arrivals workload.Arrivals
	// Depth bounds in-flight open-loop requests: arrivals past the bound
	// wait in an admission FIFO, and that wait is attributed to the queue
	// stage. Values < 1 clamp to 1; a closed loop always has one in flight.
	Depth int
	// Offered is the nominal open-loop arrival rate in ops/s, recorded on
	// the result for reporting (the achieved rate comes from the snapshot).
	Offered float64
}

// Result is one engine × workload measurement.
type Result struct {
	Snapshot metrics.Snapshot
	Hist     metrics.Histogram

	// Stages is the engine's per-request time attribution over the whole
	// replay (warmup included — the account spans every request the stack
	// served, which is what its conservation invariant covers).
	Stages telemetry.StageSnapshot
	// Resources is the engine's per-resource occupancy (NAND channels and
	// dies, PCIe DMA link, NVMe ring) over the replay.
	Resources *resource.Snapshot

	// Open-loop replay metadata, zero/empty for closed-loop runs: the
	// offered arrival rate (ops/s), the admission queue-depth bound, and
	// the arrival process name.
	Offered  float64
	Depth    int
	Arrivals string

	// Lost counts requests that failed with uncorrectable media errors
	// under TolerateMediaErrors; the snapshot's Ops is goodput (requests
	// minus Lost), and lost requests do not enter the latency histogram.
	Lost uint64
	// Rejected counts arrivals bounced off a full admission FIFO (the
	// cluster tier's per-shard bound). Rejected requests never dispatch:
	// they are excluded from goodput and from the latency histogram.
	Rejected uint64

	// Tail is the cell's slow-request capture (top-K exemplars plus the
	// blame composition over the slowest ~1%); Heat is its completion-time
	// × latency heatmap. Both cover only the measured phase and are nil
	// for replays that collect no telemetry.
	Tail *telemetry.TailSnapshot
	Heat *telemetry.HeatSnapshot

	// Name and Workload identify the cell's run record in an export
	// bundle; Run sets them to the engine's and the generator's names,
	// and a cell whose grid axes those miss overrides them. Index (kv
	// cells) and Shards and Throttled (cluster cells) are the extras some
	// experiments add to that record.
	Name, Workload string
	Index          *report.IndexSummary
	Shards         []report.ShardSummary
	Throttled      uint64

	// KV, IndexStats and Faults are the store, index-engine and fault
	// ledgers of the cells that produce them; the pool folds them into
	// the live registry together with Snapshot.
	KV         kv.Stats
	IndexStats index.Stats
	Faults     fault.Report
}

// tailTopK is how many slowest-request exemplars each cell captures;
// tailKeep sizes the kept set the tail-blame composition aggregates over
// (~the slowest 1%, never fewer than the exemplars).
const tailTopK = 5

func tailKeep(requests int) int {
	if k := requests / 100; k > tailTopK {
		return k
	}
	return tailTopK
}

// Run replays requests from gen against e and measures the paper's
// metrics. Write requests carry a deterministic payload.
//
// The engine's stack executes each dispatched request synchronously in
// virtual time, so a closed loop never has a second request in flight: it
// dispatches each request in a plain loop at its predecessor's completion.
// An open loop runs on a sim.Engine event loop: arrivals enter an
// admission FIFO and dispatch while fewer than Depth requests are in
// flight. Overlap between in-flight requests emerges from the contended
// device resources (NAND dies and channel buses, the PCIe link and NVMe
// fetch arbiter when enabled) that persist across calls. Host-side
// software state (caches, the fine-read ring) mutates at dispatch, a
// modeling simplification documented in DESIGN.md §8.
// Latency is measured arrival to completion, so open-loop queueing delay
// is part of the distribution and of the stage account's queue stage.
func Run(e baseline.Engine, gen workload.Generator, requests int, opts RunOpts) (*Result, error) {
	if opts.Warmup > 0 && opts.Arrivals != nil {
		return nil, errors.New("bench: an open-loop replay takes no warmup; replay the warm-up as its own call")
	}
	r := &replay{e: e, gen: gen, opts: opts, total: opts.Warmup + requests,
		res: &Result{Name: e.Name(), Workload: gen.Name()}}
	r.buf = make([]byte, 4096)
	r.want = make([]byte, 4096)
	r.payload = make([]byte, 4096)
	for i := range r.payload {
		r.payload[i] = byte(i*7 + 13)
	}
	r.tail = telemetry.NewTailRecorder(tailTopK, tailKeep(requests))
	defer e.Stages().SetTail(nil)

	if opts.Warmup == 0 {
		r.begin(0)
	}
	if opts.Arrivals == nil {
		r.closedLoop()
	} else {
		r.openLoop()
	}
	if r.err != nil {
		return nil, r.err
	}

	res := r.res
	res.Tail = r.tail.Snapshot()
	res.Heat = r.grid.Snapshot()
	res.Stages = e.Stages().Snapshot()
	res.Resources = e.Resources().Snapshot(r.lastDone)
	res.Snapshot = measured(e.Snapshot(), r.base, &res.Hist, r.lastDone-r.start)
	return res, nil
}

// replay is the state of one Run: the measurement that starts once the
// warmup has completed and, for an open loop, the event loop with its
// admission FIFO and in-flight count.
type replay struct {
	e     baseline.Engine
	gen   workload.Generator
	opts  RunOpts
	total int // warmup plus measured requests

	dispatched int
	lastDone   sim.Time
	err        error

	buf, want, payload []byte

	// Open loop only.
	eng                  *sim.Engine
	depth                int
	queue                []pending
	head                 int
	inFlight             int
	arrived              int
	arriveFn, completeFn func(sim.Time)

	res   *Result
	base  metrics.Snapshot
	start sim.Time
	tail  *telemetry.TailRecorder
	grid  *telemetry.LatencyGrid
}

// pending is one arrived request waiting for admission.
type pending struct {
	arrival sim.Time
	req     workload.Request
}

// begin starts the measured phase at now. The tail capture and the latency
// heatmap attach here so both cover exactly that phase; the stage account
// itself keeps spanning the whole replay (that is what conservation covers).
func (r *replay) begin(now sim.Time) {
	r.base = r.e.Snapshot()
	r.start = now
	r.e.Stages().SetTail(r.tail)
	r.grid = telemetry.NewLatencyGrid(now)
}

// closedLoop replays with one client: each request arrives the moment its
// predecessor completes, so none ever waits and no event queue is needed.
// The warmup's last completion starts the measured phase.
func (r *replay) closedLoop() {
	var now sim.Time
	for i := 1; i <= r.total && r.err == nil; i++ {
		done := r.dispatch(now, pending{arrival: now, req: r.gen.Next()})
		r.lastDone = max(r.lastDone, done)
		now = max(now, done)
		if i == r.opts.Warmup {
			r.begin(now)
		}
	}
}

// openLoop replays on the arrival schedule, through the admission FIFO,
// with at most depth requests in flight.
func (r *replay) openLoop() {
	r.eng = sim.NewEngine()
	r.depth = max(r.opts.Depth, 1)
	r.res.Offered, r.res.Depth, r.res.Arrivals = r.opts.Offered, r.depth, r.opts.Arrivals.Name()
	// The callbacks are bound once, so the loop allocates nothing per request.
	r.arriveFn, r.completeFn = r.arrive, r.complete
	if r.total > 0 {
		r.eng.At(r.opts.Arrivals.Next(), r.arriveFn)
	}
	r.eng.Run()
}

func (r *replay) arrive(now sim.Time) {
	if r.err != nil {
		return
	}
	req := r.gen.Next()
	r.arrived++
	if r.arrived < r.total {
		r.eng.At(now+r.opts.Arrivals.Next(), r.arriveFn)
	}
	r.queue = append(r.queue, pending{arrival: now, req: req})
	r.admit(now)
}

func (r *replay) complete(now sim.Time) {
	r.inFlight--
	r.admit(now)
}

// admit dispatches queued requests while the depth bound allows.
func (r *replay) admit(now sim.Time) {
	for r.err == nil && r.inFlight < r.depth && r.head < len(r.queue) {
		p := r.queue[r.head]
		r.head++
		done := r.dispatch(now, p)
		if done > r.lastDone {
			r.lastDone = done
		}
		r.inFlight++
		r.eng.At(done, r.completeFn)
	}
	// Reclaim the drained backlog so a long overloaded run does not hold
	// every request in memory.
	if r.head == len(r.queue) {
		r.queue = r.queue[:0]
		r.head = 0
	}
}

// dispatch executes one request at time now and observes it: the
// only place the harness calls the engine's ReadAt and WriteAt. It returns
// the completion time; a failed request still occupies the system until
// then. A fatal error is left on r.err.
func (r *replay) dispatch(now sim.Time, p pending) sim.Time {
	req := p.req
	seq := r.dispatched
	k := seq - r.opts.Warmup // measured index; negative during warmup
	r.dispatched++
	r.grow(req.Size)
	// A request that waited for admission arms the stage account with its
	// arrival time: the span [arrival, now) becomes its queue stage and its
	// latency is measured from arrival.
	if p.arrival < now {
		r.e.Stages().PreQueue(p.arrival)
	}
	var done sim.Time
	var err error
	if req.Write {
		done, err = r.e.WriteAt(now, r.payload[:req.Size], req.Off)
	} else {
		done, err = r.e.ReadAt(now, r.buf[:req.Size], req.Off)
		if err == nil && k >= 0 && r.opts.VerifyEvery > 0 && k%r.opts.VerifyEvery == 0 {
			r.err = r.verify(req)
		}
	}
	switch {
	case err != nil && r.opts.TolerateMediaErrors && errors.Is(err, nvme.ErrUncorrectable):
		if k >= 0 {
			r.res.Lost++
		}
	case err != nil:
		r.err = fmt.Errorf("bench: request %d (%+v): %w", seq, req, err)
	case k >= 0 && r.err == nil:
		r.res.Hist.Observe(done - p.arrival)
		r.grid.Observe(done, done-p.arrival)
		if r.opts.Sampler != nil {
			r.opts.Sampler.Tick(done)
		}
	}
	return done
}

// verify checks the bytes a read returned against the engine's oracle.
func (r *replay) verify(req workload.Request) error {
	want := r.want[:req.Size]
	if err := r.e.Oracle(want, req.Off); err != nil {
		return err
	}
	if !bytes.Equal(r.buf[:req.Size], want) {
		return fmt.Errorf("bench: %s returned wrong bytes at %d (+%d)", r.e.Name(), req.Off, req.Size)
	}
	return nil
}

// grow sizes the read, oracle and payload buffers for an n-byte request.
// The payload doubles by repeating itself, so its bytes stay deterministic.
func (r *replay) grow(n int) {
	for n > len(r.buf) {
		r.buf = make([]byte, 2*len(r.buf))
		r.want = make([]byte, len(r.buf))
	}
	for n > len(r.payload) {
		old := r.payload
		r.payload = make([]byte, 2*len(r.payload))
		copy(r.payload, old)
		copy(r.payload[len(old):], old)
	}
}

// measured is the epilogue every replay shares: cur's traffic and cache
// counters minus those of base, the snapshot taken when measurement began,
// with the operation count and latency figures taken from h.
func measured(cur, base metrics.Snapshot, h *metrics.Histogram, elapsed sim.Time) metrics.Snapshot {
	subIO(&cur.IO, base.IO)
	subCache(&cur.PageCache, base.PageCache)
	subCache(&cur.FineCache, base.FineCache)
	cur.Ops = h.Count()
	cur.Elapsed = elapsed
	cur.MeanLat = h.Mean()
	cur.P99Lat = h.Quantile(0.99)
	cur.MaxLat = h.Max()
	return cur
}

// ExportRun converts one cell measurement into a report-bundle run record,
// the pipette-report input format.
func ExportRun(r *Result) report.Run {
	exemplars, blame, kept := report.TailRows(r.Tail)
	return report.Run{
		Name:      r.Name,
		Workload:  r.Workload,
		Requests:  r.Snapshot.Ops,
		ElapsedNs: int64(r.Snapshot.Elapsed),
		OpsPerSec: r.Snapshot.ThroughputOpsPerSec(),
		ReadAmp:   r.Snapshot.IO.ReadAmplification(),
		Latency:   report.PercentilesOf(&r.Hist),
		StageNs:   int64(r.Stages.Sum()),
		Stages:    report.StageRows(&r.Stages),
		Exemplars: exemplars,
		TailBlame: blame,
		TailKept:  kept,
		Heat:      r.Heat,
		Resources: r.Resources,

		OfferedOpsPerSec: r.Offered,
		QueueDepth:       r.Depth,
		Arrivals:         r.Arrivals,
		Lost:             r.Lost,
		Rejected:         r.Rejected,
		Throttled:        r.Throttled,
		Shards:           r.Shards,
		Index:            r.Index,
	}
}

// addCounters adds b's traffic and cache counters into a; the cluster cell
// sums its shards with it.
func addCounters(a *metrics.Snapshot, b metrics.Snapshot) {
	a.IO.BytesRequested += b.IO.BytesRequested
	a.IO.BytesTransferred += b.IO.BytesTransferred
	a.IO.BytesWritten += b.IO.BytesWritten
	a.IO.BlockReads += b.IO.BlockReads
	a.IO.FineReads += b.IO.FineReads
	a.IO.Writes += b.IO.Writes
	addCache(&a.PageCache, b.PageCache)
	addCache(&a.FineCache, b.FineCache)
}

func addCache(a *metrics.Cache, b metrics.Cache) {
	a.Hits += b.Hits
	a.Accesses += b.Accesses
	a.Insertions += b.Insertions
	a.Evictions += b.Evictions
	a.Bypasses += b.Bypasses
}

func subIO(a *metrics.IO, b metrics.IO) {
	a.BytesRequested -= b.BytesRequested
	a.BytesTransferred -= b.BytesTransferred
	a.BytesWritten -= b.BytesWritten
	a.BlockReads -= b.BlockReads
	a.FineReads -= b.FineReads
	a.Writes -= b.Writes
}

func subCache(a *metrics.Cache, b metrics.Cache) {
	a.Hits -= b.Hits
	a.Accesses -= b.Accesses
	a.Insertions -= b.Insertions
	a.Evictions -= b.Evictions
	a.Bypasses -= b.Bypasses
}

// EngineNames is the canonical row order of the paper's tables.
var EngineNames = []string{
	"Block I/O", "2B-SSD MMIO", "2B-SSD DMA", "Pipette w/o cache", "Pipette",
}
