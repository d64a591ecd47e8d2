// Command pipette-kv drives the log-structured key-value store over a
// simulated Pipette system with YCSB-style workloads. It loads a keyspace,
// replays one or more of the core workloads A-F, and reports store counters
// plus the system's I/O statistics — the quickest way to see the
// fine-grained read path's effect on a real storage application
// (compare -fine=true with -fine=false).
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pipette"
	"pipette/internal/buildinfo"
	"pipette/internal/cluster"
	"pipette/internal/fault"
	"pipette/internal/kv"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

func main() {
	var (
		records   = flag.Uint64("records", 100_000, "records preloaded into the store")
		ops       = flag.Int("ops", 100_000, "operations replayed per workload")
		wls       = flag.String("workload", "A,C", "comma-separated YCSB workloads (A-F)")
		fine      = flag.Bool("fine", true, "serve Gets through the fine-grained read path")
		indexEng  = flag.String("index", "hash", "index engine: hash, btree, or lsm")
		valBytes  = flag.Int("values", 0, "fixed value size in bytes (0 = mixed 64..512)")
		capMB     = flag.Int64("capacity", 2048, "flash capacity (MiB)")
		pcMB      = flag.Int64("pagecache", 16, "page cache budget (MiB)")
		fgMB      = flag.Int("finecache", 8, "fine-grained read cache arena (MiB)")
		seed      = flag.Uint64("seed", 42, "workload seed")
		version   = flag.Bool("version", false, "print build identity and exit")
		flightOut = flag.String("flight-dump", "", "single-device mode: arm the flight recorder; a fatal error or panic dumps the recent-event ring to this file as JSON")
		listen    = flag.String("listen", "", "serve live /metrics, /healthz, and /progress on this address (e.g. :9102)")
		faultProf = flag.String("fault-profile", "", "arm fault injection: site:spec rules, e.g. 'nand.read:rber*20,hmb.ring:0.01' (empty = off)")
		faultSeed = flag.Uint64("fault-seed", 0x5eed, "seed for the fault injector's per-site decision streams")

		shards     = flag.Int("shards", 0, "serve from a sharded multi-SSD tier with this many members (0 = single device)")
		replicas   = flag.Int("replicas", 1, "cluster mode: copies per key")
		tenants    = flag.Int("tenants", 1, "cluster mode: tenant namespaces")
		skew       = flag.Float64("skew", 0, "cluster mode: per-tenant Zipf theta in [0,1), 0 = uniform keys")
		rate       = flag.Float64("rate", 60_000, "cluster mode: offered Poisson arrival rate (ops/s)")
		tenantRate = flag.Float64("tenant-rate", 0, "cluster mode: per-tenant token-bucket rate (ops/s, 0 = no limit)")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "pipette-kv")
		return
	}
	if _, err := fault.ParseProfile(*faultProf); err != nil {
		log.Fatalf("pipette-kv: %v", err)
	}

	if *shards > 0 {
		if *flightOut != "" {
			// Cluster members are private stacks behind the tier's router;
			// there is no single tracer hook to arm, so fail loudly rather
			// than silently recording nothing.
			log.Fatal("pipette-kv: -flight-dump is single-device only (incompatible with -shards)")
		}
		if err := runCluster(clusterOpts{
			shards:     *shards,
			replicas:   *replicas,
			tenants:    *tenants,
			skew:       *skew,
			rate:       *rate,
			tenantRate: *tenantRate,
			records:    *records,
			ops:        *ops,
			listen:     *listen,
			faultProf:  *faultProf,
			faultSeed:  *faultSeed,
		}); err != nil {
			log.Fatalf("pipette-kv: %v", err)
		}
		return
	}

	sys, err := pipette.New(pipette.Options{
		CapacityBytes:  *capMB << 20,
		PageCacheBytes: *pcMB << 20,
		FineCacheBytes: *fgMB << 20,
		FaultProfile:   *faultProf,
		FaultSeed:      *faultSeed,
	})
	if err != nil {
		log.Fatal(err)
	}

	// -flight-dump arms the ring on every layer of the system; the dump
	// fires from the first fatal error or panic.
	var flight *telemetry.FlightDump
	if *flightOut != "" {
		if flight, err = telemetry.OpenFlightDump(*flightOut, "pipette-kv", sys.Now, nil); err != nil {
			log.Fatalf("pipette-kv: %v", err)
		}
		defer flight.Close()
		sys.SetTracer(flight.Recorder())
		defer flight.OnPanic()
	}

	if *listen != "" {
		reg := telemetry.NewRegistry(telemetry.L("job", "pipette-kv"))
		buildinfo.Register(reg, "pipette-kv")
		sys.RegisterMetrics(reg)
		srv, err := telemetry.Serve(*listen, reg, nil)
		if err != nil {
			log.Fatalf("pipette-kv: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pipette-kv: serving /metrics and /healthz on http://%s\n", srv.Addr())
	}

	for _, wl := range strings.Split(*wls, ",") {
		wl = strings.TrimSpace(wl)
		if wl == "" {
			continue
		}
		if err := runWorkload(sys, wl, *records, *ops, *valBytes, *seed, *fine, *indexEng); err != nil {
			flight.Dump(fmt.Sprintf("fatal: workload %s: %v", wl, err))
			log.Fatalf("workload %s: %v", wl, err)
		}
	}

	fmt.Println("system report:")
	fmt.Println(sys.Report())
}

// clusterOpts carries the cluster-mode flag values.
type clusterOpts struct {
	shards, replicas, tenants int
	skew, rate, tenantRate    float64
	records                   uint64
	ops                       int
	listen, faultProf         string
	faultSeed                 uint64
}

// runCluster serves the keyspace from the sharded tier: load every
// tenant's records onto their replica sets, seal (arming member 0's fault
// profile, if any), replay a multi-tenant open-loop stream, and print the
// tier's ledger. With -listen, one /metrics scrape covers every member via
// per-shard labels.
func runCluster(o clusterOpts) error {
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
	perShard := int64(o.records) * int64(o.tenants) * int64(o.replicas) * 290 * 3 / int64(o.shards)
	if perShard < 4<<20 {
		perShard = 4 << 20
	}
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
		fmt.Fprintf(os.Stderr, "pipette-kv: serving /metrics and /healthz on http://%s\n", srv.Addr())
	}

	key := func(k uint64) string { return fmt.Sprintf("user%010d", k) }
	var buf []byte
	for t := 0; t < o.tenants; t++ {
		for k := uint64(0); k < o.records; k++ {
			buf = value(buf, k^uint64(t)<<48, 0, 0)
			if err := c.Load(kv.NamespaceKey(t, key(k)), buf); err != nil {
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
			Key: kv.NamespaceKey(r.Tenant, key(r.Record))}
		if r.Write {
			reqBuf = value(reqBuf, r.Record^uint64(r.Tenant)<<48, 1, 0)
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

	fmt.Printf("cluster: %d shards, R=%d, %d tenants, zipf %.2f; %d records/tenant loaded in %v\n",
		o.shards, cfg.Replicas, o.tenants, o.skew, o.records, start)
	fmt.Printf("  %d offered in %v: %d ok (%.0f ops/s goodput), %d rejected, %d throttled, %d lost\n",
		res.Arrived, res.Elapsed, res.Hist.Count(), res.Goodput(),
		res.Rejected, res.Throttled, res.Lost)
	fmt.Printf("  latency: mean %.2f us, p50 %.2f us, p99 %.2f us\n",
		res.Hist.Mean().Micros(), res.Hist.Quantile(0.50).Micros(), res.Hist.Quantile(0.99).Micros())
	for _, ts := range res.Tenants {
		fmt.Printf("  tenant %d: %d arrived, %d throttled, %d rejected, %d lost, p99 %.2f us\n",
			ts.Tenant, ts.Arrived, ts.Throttled, ts.Rejected, ts.Lost,
			ts.Hist.Quantile(0.99).Micros())
	}
	for _, ss := range res.Shards {
		mark := ""
		if ss.Faulted {
			mark = " (fault profile armed)"
		}
		fmt.Printf("  shard %d: %d primary, %d execs, %d repl.writes, %d hedges, %d failovers, %d rejected, %d media errors%s\n",
			ss.Shard, ss.Primary, ss.Executions, ss.ReplicaWrites,
			ss.Hedges, ss.Failovers, ss.Rejected, ss.MediaErrors, mark)
	}
	return nil
}

func value(buf []byte, key uint64, ver uint32, fixed int) []byte {
	n := fixed
	if n == 0 {
		n = 64 + int(sim.Mix64(key^0x5eed1e)%449)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	pat := sim.Mix64(key ^ uint64(ver)<<32)
	for i := range buf {
		buf[i] = byte(pat >> (8 * (i & 7)))
	}
	return buf
}

func runWorkload(sys *pipette.System, wl string, records uint64, ops, valBytes int, seed uint64, fine bool, indexEng string) error {
	cfg, err := workload.StandardYCSB(wl, records, seed)
	if err != nil {
		return err
	}
	gen, err := workload.NewYCSB(cfg)
	if err != nil {
		return err
	}

	// One store per workload so counters and virtual time are per-run.
	kv, err := sys.OpenKV(pipette.KVOptions{
		NamePrefix: "ycsb-" + wl + "/seg-",
		BlockReads: !fine,
		Index:      indexEng,
	})
	if err != nil {
		return err
	}
	defer kv.Close()

	// Under an armed fault profile an operation may hit an uncorrectable
	// media error; that is the experiment's subject, so count it and go on.
	var lost uint64
	tolerate := func(err error) error {
		if err != nil && errors.Is(err, pipette.ErrUncorrectable) {
			lost++
			return nil
		}
		return err
	}

	key := func(k uint64) string { return fmt.Sprintf("user%010d", k) }
	var buf []byte
	loadStart := sys.Now()
	for k := uint64(0); k < records; k++ {
		buf = value(buf, k, 0, valBytes)
		if err := tolerate(kv.Put(key(k), buf)); err != nil {
			return fmt.Errorf("load %d: %w", k, err)
		}
	}
	if err := tolerate(kv.Sync()); err != nil {
		return err
	}
	loaded := sys.Now()

	ver := make(map[uint64]uint32)
	for i := 0; i < ops; i++ {
		req := gen.Next()
		switch req.Op {
		case workload.OpRead:
			if _, err := kv.Get(key(req.Key)); tolerateLookup(tolerate, err) != nil {
				return fmt.Errorf("get %d: %w", req.Key, err)
			}
		case workload.OpUpdate, workload.OpInsert:
			if req.Op == workload.OpUpdate {
				ver[req.Key]++
			}
			buf = value(buf, req.Key, ver[req.Key], valBytes)
			if err := tolerate(kv.Put(key(req.Key), buf)); err != nil {
				return fmt.Errorf("put %d: %w", req.Key, err)
			}
		case workload.OpScan:
			err := kv.Scan(key(req.Key), req.ScanLen, func(string, []byte) bool { return true })
			if tolerate(err) != nil {
				return fmt.Errorf("scan %d: %w", req.Key, err)
			}
		case workload.OpRMW:
			if _, err := kv.Get(key(req.Key)); tolerateLookup(tolerate, err) != nil {
				return fmt.Errorf("rmw get %d: %w", req.Key, err)
			}
			ver[req.Key]++
			buf = value(buf, req.Key, ver[req.Key], valBytes)
			if err := tolerate(kv.Put(key(req.Key), buf)); err != nil {
				return fmt.Errorf("rmw put %d: %w", req.Key, err)
			}
		}
		if i%256 == 255 {
			sys.MaintenanceTick()
		}
	}
	done := sys.Now()

	st := kv.Stats()
	mode := "pipette"
	if !fine {
		mode = "block I/O"
	}
	fmt.Printf("YCSB-%s (%s): %d records loaded in %v; %d ops in %v\n",
		wl, mode, records, loaded-loadStart, ops, done-loaded)
	fmt.Printf("  store: %d live keys, %d gets (%d misses), %d puts, %d deletes, %d scans\n",
		kv.Len(), st.Gets, st.Misses, st.Puts, st.Deletes, st.Scans)
	fmt.Printf("  log:   %.1f MB written, %.1f MB read, %d rotations, %d compactions (%.1f MB reclaimed)\n",
		float64(st.BytesWritten)/(1<<20), float64(st.BytesRead)/(1<<20),
		st.Rotations, st.Compactions, float64(st.ReclaimedBytes)/(1<<20))
	ix := kv.IndexStats()
	switch kv.IndexKind() {
	case "btree":
		fmt.Printf("  index: btree height %d, %d nodes, %.2f node reads/lookup, %d splits, %d merges, %.1f MB idx read\n",
			ix.Height, ix.Nodes, ix.NodeReadsPerLookup(), ix.Splits, ix.Merges, float64(ix.BytesRead)/(1<<20))
	case "lsm":
		fmt.Printf("  index: lsm %d runs, %d flushes, %d merges, bloom FP %.3f, cache hit %.2f, %.1f MB idx read\n",
			ix.Runs, ix.Flushes, ix.Compactions, ix.BloomFPRate(), ix.CacheHitRate(), float64(ix.BytesRead)/(1<<20))
	default:
		fmt.Printf("  index: hash (in-memory, no index I/O)\n")
	}
	if lost > 0 {
		fmt.Printf("  faults: %d operations lost to uncorrectable media errors\n", lost)
	}
	fmt.Println()
	return nil
}

// tolerateLookup folds the two benign Get outcomes — an uncorrectable
// media error (counted by tolerate) and a key evicted by a lost write.
func tolerateLookup(tolerate func(error) error, err error) error {
	if errors.Is(err, pipette.ErrNotFound) {
		return nil
	}
	return tolerate(err)
}
