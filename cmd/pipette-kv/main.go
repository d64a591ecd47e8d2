// Command pipette-kv drives the log-structured key-value store over a
// simulated Pipette system with YCSB-style workloads. It loads a keyspace,
// replays one or more of the core workloads A-F, and reports store counters
// plus the system's I/O statistics — the quickest way to see the
// fine-grained read path's effect on a real storage application
// (compare -fine=true with -fine=false).
//
// Each workload is one bench pool cell over a private stack, replayed by
// bench.ReplayKV, the kv experiment's loop: reads are verified, and the
// latency, stage and flight telemetry work as in pipette-sim.
//
// Usage:
//
//	pipette-kv -records 100000 -ops 200000 -workload A,C
//	pipette-kv -workload B -fine=false
//	pipette-kv -records 50000 -values 64 -seed 7
//	pipette-kv -listen :9102                  # live /metrics while replaying
//	pipette-kv -fault-profile nand.read:rber*20,hmb.ring:0.01
//
// With -shards > 0 the command serves the keyspace from a sharded
// multi-SSD tier instead of one device: consistent-hash routing,
// R-way replication, per-tenant namespaces and QoS. A fault profile then
// degrades member 0 only — the tier, not the experiment, absorbs it.
//
//	pipette-kv -shards 4 -replicas 2 -tenants 2 -skew 0.99 -records 4096 -ops 20000
//	pipette-kv -shards 4 -replicas 2 -fault-profile nand.read:0.6 -listen :9102
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pipette/internal/baseline"
	"pipette/internal/bench"
	"pipette/internal/buildinfo"
	"pipette/internal/cluster"
	"pipette/internal/fault"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// replayer is what every workload's cell shares; under -listen, reg is
// the registry each cell's stage account binds to.
type replayer struct {
	stack baseline.StackConfig
	store kv.Config
	opts  bench.KVOpts
	ops   int
	reg   *telemetry.Registry
}

// run is the command: it parses args, replays the workloads, prints the
// reports to stdout and diagnostics to stderr, and returns the exit code.
// A usage error exits 2 before any output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipette-kv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		records   = fs.Uint64("records", 100_000, "records preloaded into the store")
		ops       = fs.Int("ops", 100_000, "operations replayed per workload")
		wls       = fs.String("workload", "A,C", "comma-separated YCSB workloads (A-F)")
		fine      = fs.Bool("fine", true, "serve Gets through the fine-grained read path")
		indexEng  = fs.String("index", "hash", "index engine: hash, btree, or lsm")
		valBytes  = fs.Int("values", 0, "fixed value size in bytes (0 = mixed 64..512)")
		capMB     = fs.Int64("capacity", 2048, "flash capacity (MiB)")
		pcMB      = fs.Int64("pagecache", 16, "page cache budget (MiB)")
		fgMB      = fs.Int("finecache", 8, "fine-grained read cache arena (MiB)")
		seed      = fs.Uint64("seed", 42, "workload seed")
		version   = fs.Bool("version", false, "print build identity and exit")
		flightOut = fs.String("flight-dump", "", "single-device mode: arm the flight recorder; the first operation lost to a media error, a fatal error, or a panic dumps the recent-event ring to this file as JSON, and a clean run dumps it at the end")
		listen    = fs.String("listen", "", "serve live /metrics, /healthz, and /progress on this address (e.g. :9102)")
		faultProf = fs.String("fault-profile", "", "arm fault injection: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
		faultSeed = fs.Uint64("fault-seed", 0x5eed, "seed for the fault injector's per-site decision streams")
	)
	var co clusterOpts
	fs.IntVar(&co.shards, "shards", 0, "serve from a sharded multi-SSD tier with this many members (0 = single device)")
	fs.IntVar(&co.replicas, "replicas", 1, "cluster mode: copies per key")
	fs.IntVar(&co.tenants, "tenants", 1, "cluster mode: tenant namespaces")
	fs.Float64Var(&co.skew, "skew", 0, "cluster mode: per-tenant Zipf theta in [0,1), 0 = uniform keys")
	fs.Float64Var(&co.rate, "rate", 60_000, "cluster mode: offered Poisson arrival rate (ops/s)")
	fs.Float64Var(&co.tenantRate, "tenant-rate", 0, "cluster mode: per-tenant token-bucket rate (ops/s, 0 = no limit)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "pipette-kv")
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "pipette-kv: %v\n", err)
		return code
	}
	prof, profErr := fault.ParseProfile(*faultProf)
	kind, indexErr := index.ParseKind(*indexEng)
	var shardsErr error
	if co.shards > 0 && *flightOut != "" {
		// Cluster members are private stacks behind the tier's router;
		// there is no single tracer hook to arm, so fail loudly rather
		// than silently recording nothing.
		shardsErr = errors.New("-flight-dump is single-device only (incompatible with -shards)")
	}
	if err := cmp.Or(profErr, indexErr, checkOps(*ops), checkValues(*valBytes),
		checkBudgets(*capMB, *pcMB, *fgMB), checkSkew(co.skew), shardsErr); err != nil {
		return fail(2, err)
	}

	if co.shards > 0 {
		co.records, co.ops, co.listen, co.faultProf, co.faultSeed = *records, *ops, *listen, *faultProf, *faultSeed
		if err := runCluster(stdout, stderr, co); err != nil {
			return fail(1, err)
		}
		return 0
	}

	// Every workload's generator is built before any replay, so a bad
	// name, or no records to replay over, is a usage error.
	names := strings.Split(*wls, ",")
	gens := make([]*workload.YCSB, len(names))
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		var err error
		if gens[i], err = bench.YCSB(names[i], *records, *seed); err != nil {
			return fail(2, err)
		}
	}
	r := &replayer{
		stack: baseline.CapacityStackConfig(*capMB << 20),
		store: kv.Config{FineReads: *fine, Index: index.Config{Kind: kind}},
		ops:   *ops,
		opts: bench.KVOpts{
			ValueBytes: *valBytes,
			// Under an armed fault profile uncorrectable media errors are
			// expected outcomes, not failures: count them and go on.
			TolerateMediaErrors: !prof.Empty(),
		},
	}
	r.stack.SetCaches(int(*pcMB<<20/int64(r.stack.SSD.NAND.PageSize)), *fgMB<<20)
	r.stack.FaultProfile, r.stack.FaultSeed = prof, *faultSeed

	// -flight-dump arms one recorder on every cell's stack; the first
	// operation lost to a media error, a fatal error or a panicking cell
	// dumps it, and a clean run dumps it at the end.
	var flight *telemetry.FlightDump
	if *flightOut != "" {
		var err error
		if flight, err = telemetry.OpenFlightDump(*flightOut, "pipette-kv", nil); err != nil {
			return fail(1, err)
		}
		defer flight.Close()
		bench.ArmFlight(flight.Recorder(), flight.Dump)
		defer bench.ArmFlight(nil, nil)
	}

	pool := bench.NewPool(0)
	if *listen != "" {
		r.reg = telemetry.NewRegistry(telemetry.L("job", "pipette-kv"))
		buildinfo.Register(r.reg, "pipette-kv")
		live := bench.NewLive(r.reg)
		pool.SetLive(live)
		srv, err := telemetry.Serve(*listen, r.reg, live.Progress)
		if err != nil {
			return fail(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "pipette-kv: serving /metrics /healthz /progress on http://%s\n", srv.Addr())
	}

	// Each workload is a private simulation rendering into its own
	// buffer; the buffers print in input order.
	bufs := make([]bytes.Buffer, len(names))
	cells := make([]bench.Cell, len(names))
	for i, name := range names {
		label := fmt.Sprintf("kv/%d/ycsb-%s", i, name)
		cells[i] = bench.Cell{Label: label, Run: func() (*bench.Result, error) {
			return r.replay(&bufs[i], label, name, gens[i])
		}}
	}
	err := pool.RunCells(cells)
	for i := range bufs {
		stdout.Write(bufs[i].Bytes())
	}
	if err != nil {
		flight.Dump(fmt.Sprintf("fatal: %v", err))
		return fail(1, err)
	}
	flight.End()
	return 0
}

// replay is one workload's cell: it builds a private stack, opens the
// store on it, replays through bench.ReplayKV, and renders the report
// into w.
func (r *replayer) replay(w io.Writer, label, wl string, gen *workload.YCSB) (*bench.Result, error) {
	records := gen.Records() // before inserts grow it
	st, err := baseline.NewStack(r.stack, r.store.FineReads)
	if err != nil {
		return nil, err
	}
	st.SA.BindRegistry(r.reg, telemetry.L("cell", label)) // no-op without -listen
	store, opened, err := kv.Open(0, kv.VFSBackend{V: st.V}, r.store)
	if err != nil {
		return nil, err
	}
	res, done, err := bench.ReplayKV(st, store, opened, gen, r.ops, r.opts)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", wl, err)
	}
	mode := "pipette"
	if !r.store.FineReads {
		mode = "block I/O"
	}
	res.Name, res.Workload = mode, "YCSB-"+wl

	fmt.Fprintf(w, "YCSB-%s (%s): %d records loaded in %v; %d ops in %v\n",
		wl, mode, records, done-res.Snapshot.Elapsed-opened, r.ops, res.Snapshot.Elapsed)
	kst := store.Stats()
	fmt.Fprintf(w, "  store: %d live keys, %d gets (%d misses), %d puts, %d deletes, %d scans\n",
		store.Len(), kst.Gets, kst.Misses, kst.Puts, kst.Deletes, kst.Scans)
	fmt.Fprintf(w, "  log:   %.1f MB written, %.1f MB read, %d rotations, %d compactions (%.1f MB reclaimed)\n",
		float64(kst.BytesWritten)/(1<<20), float64(kst.BytesRead)/(1<<20),
		kst.Rotations, kst.Compactions, float64(kst.ReclaimedBytes)/(1<<20))
	ix := store.IndexStats()
	switch r.store.Index.Kind {
	case index.BTree:
		fmt.Fprintf(w, "  index: btree height %d, %d nodes, %.2f node reads/lookup, %d splits, %d merges, %.1f MB idx read\n",
			ix.Height, ix.Nodes, ix.NodeReadsPerLookup(), ix.Splits, ix.Merges, float64(ix.BytesRead)/(1<<20))
	case index.LSM:
		fmt.Fprintf(w, "  index: lsm %d runs, %d flushes, %d merges, bloom FP %.3f, cache hit %.2f, %.1f MB idx read\n",
			ix.Runs, ix.Flushes, ix.Compactions, ix.BloomFPRate(), ix.CacheHitRate(), float64(ix.BytesRead)/(1<<20))
	default:
		fmt.Fprintf(w, "  index: hash (in-memory, no index I/O)\n")
	}
	fmt.Fprintf(w, "  latency: mean %.2f us, p50 %.2f us, p99 %.2f us, max %.2f us\n",
		res.Hist.Mean().Micros(), res.Hist.Quantile(0.50).Micros(),
		res.Hist.Quantile(0.99).Micros(), res.Hist.Max().Micros())
	if res.Lost > 0 {
		fmt.Fprintf(w, "  faults: %d operations lost to uncorrectable media errors\n", res.Lost)
	}
	fmt.Fprintln(w, "system report:")
	fmt.Fprintln(w, st.Report(done))
	return res, nil
}

// clusterOpts carries the cluster-mode flag values and the ones cluster
// mode shares with single-device mode.
type clusterOpts struct {
	shards, replicas, tenants int
	skew, rate, tenantRate    float64
	records                   uint64
	ops                       int
	listen, faultProf         string
	faultSeed                 uint64
}

// checkOps rejects an -ops count below 1, in single-device and cluster
// mode alike: there is nothing to replay.
func checkOps(n int) error {
	if n < 1 {
		return fmt.Errorf("-ops %d: need at least 1", n)
	}
	return nil
}

// checkValues rejects a negative -values size; 0 selects mixed sizes.
func checkValues(n int) error {
	if n < 0 {
		return fmt.Errorf("-values %d: need 0 (mixed sizes) or a positive size", n)
	}
	return nil
}

// checkBudgets rejects a -capacity, -pagecache or -finecache below 1 MiB.
func checkBudgets(capMB, pcMB int64, fgMB int) error {
	if min(capMB, pcMB, int64(fgMB)) < 1 {
		return fmt.Errorf("-capacity %d, -pagecache %d, -finecache %d: each needs at least 1 (MiB)", capMB, pcMB, fgMB)
	}
	return nil
}

// checkSkew rejects a -skew outside the Zipf theta range [0, 1): the
// multi-tenant generator would replay uniform keys for a negative theta.
func checkSkew(theta float64) error {
	if !(theta >= 0 && theta < 1) {
		return fmt.Errorf("-skew %v: need a Zipf theta in [0, 1)", theta)
	}
	return nil
}

// runCluster serves the keyspace from the sharded tier: load every
// tenant's records onto their replica sets, seal (arming member 0's fault
// profile, if any), replay a multi-tenant open-loop stream, and print the
// tier's ledger. With -listen, one /metrics scrape covers every member via
// per-shard labels.
func runCluster(stdout, stderr io.Writer, o clusterOpts) error {
	cfg := cluster.Config{
		Shards:     o.shards,
		Replicas:   o.replicas,
		Tenants:    o.tenants,
		Depth:      16,
		MaxQueue:   64,
		TenantRate: o.tenantRate,
	}
	if o.replicas > 1 {
		cfg.ReadPolicy = cluster.ReadHedged
		cfg.HedgeDelay = 50 * sim.Microsecond
	}
	prof, err := fault.ParseProfile(o.faultProf)
	if err != nil {
		return err
	}
	// Size each member for its slice of the replicated keyspace (values
	// average ~290 B; x3 slack covers log churn and placement imbalance).
	perShard := max(int64(o.records)*int64(o.tenants)*int64(o.replicas)*290*3/int64(o.shards), 4<<20)
	c, err := cluster.New(cfg, func(id int) cluster.ShardConfig {
		sc := cluster.ShardConfig{DatasetBytes: perShard, FineReads: true}
		if id == 0 && !prof.Empty() {
			sc.Fault = prof
			sc.FaultSeed = o.faultSeed
			sc.ECCUncorrectableFrac = 0.5
		}
		return sc
	})
	if err != nil {
		return err
	}

	if o.listen != "" {
		reg := telemetry.NewRegistry(telemetry.L("job", "pipette-kv"))
		buildinfo.Register(reg, "pipette-kv")
		c.RegisterMetrics(reg)
		srv, err := telemetry.Serve(o.listen, reg, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "pipette-kv: serving /metrics and /healthz on http://%s\n", srv.Addr())
	}

	var buf []byte
	for t := 0; t < o.tenants; t++ {
		for k := uint64(0); k < o.records; k++ {
			buf = bench.KVValue(buf, k^uint64(t)<<48, 0, 0)
			if err := c.Load(kv.NamespaceKey(t, bench.KVKey(k)), buf); err != nil {
				return err
			}
		}
	}
	start, err := c.SealLoad()
	if err != nil {
		return err
	}

	tcfgs := make([]workload.TenantConfig, o.tenants)
	for t := range tcfgs {
		tcfgs[t] = workload.TenantConfig{Weight: 1, Theta: o.skew, ReadFraction: 0.9}
	}
	mt, err := workload.NewMultiTenant(o.records, tcfgs, 42)
	if err != nil {
		return err
	}
	arr, err := workload.NewPoisson(o.rate, 99)
	if err != nil {
		return err
	}
	var reqBuf []byte
	next := func() cluster.Request {
		r := mt.Next()
		req := cluster.Request{Tenant: r.Tenant, Write: r.Write,
			Key: kv.NamespaceKey(r.Tenant, bench.KVKey(r.Record))}
		if r.Write {
			reqBuf = bench.KVValue(reqBuf, r.Record^uint64(r.Tenant)<<48, 1, 0)
			req.Val = reqBuf
		}
		return req
	}
	res, err := c.Replay(next, o.ops, cluster.ReplayOpts{
		Arrivals:            arr,
		Start:               start,
		TickEvery:           256,
		TolerateMediaErrors: true,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "cluster: %d shards, R=%d, %d tenants, zipf %.2f; %d records/tenant loaded in %v\n",
		o.shards, cfg.Replicas, o.tenants, o.skew, o.records, start)
	fmt.Fprintf(stdout, "  %d offered in %v: %d ok (%.0f ops/s goodput), %d rejected, %d throttled, %d lost\n",
		res.Arrived, res.Elapsed, res.Hist.Count(), res.Goodput(),
		res.Rejected, res.Throttled, res.Lost)
	fmt.Fprintf(stdout, "  latency: mean %.2f us, p50 %.2f us, p99 %.2f us\n",
		res.Hist.Mean().Micros(), res.Hist.Quantile(0.50).Micros(), res.Hist.Quantile(0.99).Micros())
	for _, ts := range res.Tenants {
		fmt.Fprintf(stdout, "  tenant %d: %d arrived, %d throttled, %d rejected, %d lost, p99 %.2f us\n",
			ts.Tenant, ts.Arrived, ts.Throttled, ts.Rejected, ts.Lost,
			ts.Hist.Quantile(0.99).Micros())
	}
	for _, ss := range res.Shards {
		mark := ""
		if ss.Faulted {
			mark = " (fault profile armed)"
		}
		fmt.Fprintf(stdout, "  shard %d: %d primary, %d execs, %d repl.writes, %d hedges, %d failovers, %d rejected, %d media errors%s\n",
			ss.Shard, ss.Primary, ss.Executions, ss.ReplicaWrites,
			ss.Hedges, ss.Failovers, ss.Rejected, ss.MediaErrors, mark)
	}
	return nil
}
