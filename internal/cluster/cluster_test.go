package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/kv"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// testVal derives a deterministic payload for (tenant, record).
func testVal(tenant int, rec uint64) []byte {
	h := sim.Mix64(uint64(tenant)<<40 ^ rec ^ 0xc1a5)
	n := 64 + int(h%448)
	out := make([]byte, n)
	for i := range out {
		h = sim.Mix64(h + uint64(i))
		out[i] = byte(h)
	}
	return out
}

func testKey(tenant int, rec uint64) string {
	return kv.NamespaceKey(tenant, fmt.Sprintf("user%08d", rec))
}

type testClusterOpts struct {
	cfg     Config
	records uint64 // per tenant
	fault   string // profile armed on shard 0
}

func buildTestCluster(t *testing.T, o testClusterOpts) (*Cluster, sim.Time) {
	t.Helper()
	var prof fault.Profile
	if o.fault != "" {
		p, err := fault.ParseProfile(o.fault)
		if err != nil {
			t.Fatalf("parse profile: %v", err)
		}
		prof = p
	}
	c, err := New(o.cfg, func(id int) ShardConfig {
		// Caches are budgeted at 1/8 of DatasetBytes; tests that need media
		// traffic (queueing, hedging, fault injection) pass enough records
		// to spill them.
		sc := ShardConfig{DatasetBytes: 4 << 20, FineReads: true}
		if id == 0 && o.fault != "" {
			sc.Fault, sc.FaultSeed = prof, 7
			sc.ECCUncorrectableFrac = 0.5 // a dying member, not a flaky one
		}
		return sc
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	for tn := 0; tn < o.cfg.Tenants; tn++ {
		for rec := uint64(0); rec < o.records; rec++ {
			if err := c.Load(testKey(tn, rec), testVal(tn, rec)); err != nil {
				t.Fatalf("load: %v", err)
			}
		}
	}
	start, err := c.SealLoad()
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	return c, start
}

func testReplay(t *testing.T, c *Cluster, start sim.Time, records uint64, requests int) *Result {
	t.Helper()
	return testReplayWith(t, c, start, records, requests, nil, nil)
}

// testReplayWith replays a two-tenant Poisson stream (a zipfian read-mostly
// tenant beside a uniform one) with the given tail recorder and heatmap.
func testReplayWith(t *testing.T, c *Cluster, start sim.Time, records uint64, requests int,
	tail *telemetry.TailRecorder, heat *telemetry.LatencyGrid) *Result {
	t.Helper()
	mt, err := workload.NewMultiTenant(records, []workload.TenantConfig{
		{Weight: 3, Theta: 0.99, ReadFraction: 0.9},
		{Weight: 1, Theta: 0, ReadFraction: 0.7},
	}, 42)
	if err != nil {
		t.Fatalf("multitenant: %v", err)
	}
	arr, err := workload.NewPoisson(30000, 99)
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	res, err := c.Replay(func() Request {
		r := mt.Next()
		req := Request{Tenant: r.Tenant, Write: r.Write, Key: testKey(r.Tenant, r.Record)}
		if r.Write {
			req.Val = testVal(r.Tenant, r.Record)
		}
		return req
	}, requests, ReplayOpts{Arrivals: arr, Start: start, TickEvery: 64, TolerateMediaErrors: true,
		Tail: tail, Heat: heat})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res
}

// Every loaded record must be readable from every replica with identical
// bytes — replication actually placed R copies.
func TestClusterReadBackAllReplicas(t *testing.T) {
	t.Parallel()
	c, start := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 4, Replicas: 2, Tenants: 2},
		records: 64,
	})
	now := start
	var reps []int
	for tn := 0; tn < 2; tn++ {
		for rec := uint64(0); rec < 64; rec++ {
			key := testKey(tn, rec)
			reps = c.Route(key, reps)
			if len(reps) != 2 {
				t.Fatalf("key %q: %d replicas, want 2", key, len(reps))
			}
			for _, r := range reps {
				got, done, err := c.Shard(r).Store.Get(now, key, nil)
				if err != nil {
					t.Fatalf("key %q shard %d: %v", key, r, err)
				}
				if !bytes.Equal(got, testVal(tn, rec)) {
					t.Fatalf("key %q shard %d: payload mismatch", key, r)
				}
				if done > now {
					now = done
				}
			}
		}
	}
}

// The whole-cluster replay must be a pure function of its inputs: two
// identical clusters replaying the same stream produce deeply equal
// results, including per-shard and per-tenant ledgers. Each case's whole
// Result (and, where armed, its tail and heatmap snapshots) is pinned by a
// golden dump under testdata/.
func TestClusterReplayDeterministic(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		cfg     Config
		records uint64
		fault   string
		armed   bool // Tail and Heat recorders on
	}{
		{"primary", Config{Shards: 4, Replicas: 2, Tenants: 2, Depth: 8, MaxQueue: 32}, 512, "", false},
		{"hedged", Config{Shards: 4, Replicas: 2, Tenants: 2, ReadPolicy: ReadHedged, HedgeDelay: 50_000}, 512, "", false},
		// A dying member under hedged reads: failover and hedge legs,
		// with their synthesized blame.
		{"faulted", Config{Shards: 4, Replicas: 2, Tenants: 2, Depth: 4,
			ReadPolicy: ReadHedged, HedgeDelay: 30 * sim.Microsecond}, 4096, "nand.read:0.6", true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const requests = 400
			run := func() (*Result, []byte) {
				c, start := buildTestCluster(t, testClusterOpts{cfg: tc.cfg, records: tc.records, fault: tc.fault})
				var tail *telemetry.TailRecorder
				var heat *telemetry.LatencyGrid
				if tc.armed {
					tail, heat = telemetry.NewTailRecorder(100, requests), telemetry.NewLatencyGrid(start)
				}
				res := testReplayWith(t, c, start, tc.records, requests, tail, heat)
				return res, dumpResult(res, tail, heat)
			}
			a, dumpA := run()
			b, dumpB := run()
			if !reflect.DeepEqual(a, b) || !bytes.Equal(dumpA, dumpB) {
				t.Fatalf("replays diverge:\n%+v\nvs\n%+v", a, b)
			}
			golden := filepath.Join("testdata", "replay-"+tc.name+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dumpA, want) {
				t.Errorf("replay differs from %s:\n%s", golden, dumpA)
			}
			if a.Hist.Count() == 0 {
				t.Fatal("no successful requests")
			}
			if a.Arrived != a.Admitted+a.Rejected+a.Throttled {
				t.Fatalf("arrival conservation broken: %d != %d+%d+%d", a.Arrived, a.Admitted, a.Rejected, a.Throttled)
			}
			if a.Admitted != a.Hist.Count()+a.Lost {
				t.Fatalf("admission conservation broken: %d != %d+%d", a.Admitted, a.Hist.Count(), a.Lost)
			}
			var tenantArrived uint64
			for _, ts := range a.Tenants {
				tenantArrived += ts.Arrived
			}
			if tenantArrived != a.Arrived {
				t.Fatalf("tenant ledgers cover %d arrivals, want %d", tenantArrived, a.Arrived)
			}
		})
	}
}

// dumpResult renders every field of a replay's Result (histograms bucket by
// bucket), then the tail recorder's snapshot segment by segment and the
// heatmap, when armed.
func dumpResult(res *Result, tail *telemetry.TailRecorder, heat *telemetry.LatencyGrid) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "arrived %d admitted %d rejected %d throttled %d lost %d\n",
		res.Arrived, res.Admitted, res.Rejected, res.Throttled, res.Lost)
	fmt.Fprintf(&b, "start %d elapsed %d\nhist %+v\n", int64(res.Start), int64(res.Elapsed), res.Hist)
	for _, ss := range res.Shards {
		fmt.Fprintf(&b, "shard %d primary %d executions %d replica_writes %d hedges %d failovers %d rejected %d media_errors %d faulted %t\n",
			ss.Shard, ss.Primary, ss.Executions, ss.ReplicaWrites, ss.Hedges, ss.Failovers, ss.Rejected, ss.MediaErrors, ss.Faulted)
	}
	for _, ts := range res.Tenants {
		fmt.Fprintf(&b, "tenant %d arrived %d throttled %d rejected %d lost %d\n  hist %+v\n",
			ts.Tenant, ts.Arrived, ts.Throttled, ts.Rejected, ts.Lost, ts.Hist)
	}
	if snap := tail.Snapshot(); snap != nil {
		fmt.Fprintf(&b, "tail kept %d observed %d\n", snap.Kept, snap.Observed)
		for _, ex := range snap.TopK {
			fmt.Fprintf(&b, "  seq %d [%d, %d]", ex.Seq, int64(ex.Start), int64(ex.End))
			for _, s := range ex.Segs {
				fmt.Fprintf(&b, " %s/%s:%d-%d", s.Stage, s.Res, int64(s.Start), int64(s.End))
			}
			b.WriteByte('\n')
		}
		for _, row := range snap.Blame {
			fmt.Fprintf(&b, "  blame %s/%s %d\n", row.Stage, row.Res, int64(row.Total))
		}
	}
	if snap := heat.Snapshot(); snap != nil {
		fmt.Fprintf(&b, "heat %+v\n", *snap)
	}
	return b.Bytes()
}

// A faulted member with R=2 must fail over instead of losing requests:
// degraded mode serves reads from the surviving replica.
func TestClusterDegradedFailover(t *testing.T) {
	t.Parallel()
	c, start := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 4, Replicas: 2, Tenants: 2},
		records: 4096,
		fault:   "nand.read:0.8",
	})
	res := testReplay(t, c, start, 4096, 600)
	var failovers uint64
	for _, ss := range res.Shards {
		failovers += ss.Failovers
	}
	if !res.Shards[0].Faulted {
		t.Fatal("shard 0 should report its armed fault profile")
	}
	if res.Shards[0].MediaErrors == 0 {
		t.Fatal("faulted shard shows no media errors — profile not biting")
	}
	if failovers == 0 {
		t.Fatal("no failovers despite a faulted primary")
	}
	if res.Lost*10 > res.Admitted {
		t.Fatalf("degraded mode lost %d of %d admitted — failover not absorbing faults", res.Lost, res.Admitted)
	}
	// And the degraded replay is reproducible too.
	c2, start2 := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 4, Replicas: 2, Tenants: 2},
		records: 4096,
		fault:   "nand.read:0.8",
	})
	res2 := testReplay(t, c2, start2, 4096, 600)
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("degraded replay not deterministic")
	}
}

// A tiny depth and FIFO bound under a hot keyspace must reject with
// backpressure, and a tight token bucket must throttle — and both must
// keep the arrival ledger exact.
func TestClusterBackpressureAndThrottle(t *testing.T) {
	t.Parallel()
	c, start := buildTestCluster(t, testClusterOpts{
		cfg: Config{
			Shards: 2, Replicas: 1, Tenants: 2,
			Depth: 1, MaxQueue: 2,
			TenantRate: 8000, TenantBurst: 64,
		},
		records: 8192,
	})
	res := testReplay(t, c, start, 8192, 500)
	if res.Rejected == 0 {
		t.Fatal("no FIFO rejects despite depth 1, queue 2")
	}
	if res.Throttled == 0 {
		t.Fatal("no throttles despite an 8k ops/s tenant bucket under a 30k ops/s offered load")
	}
	if res.Arrived != res.Admitted+res.Rejected+res.Throttled {
		t.Fatalf("arrival conservation broken: %d != %d+%d+%d", res.Arrived, res.Admitted, res.Rejected, res.Throttled)
	}
	var rej, thr uint64
	for _, ts := range res.Tenants {
		rej += ts.Rejected
		thr += ts.Throttled
	}
	if rej != res.Rejected || thr != res.Throttled {
		t.Fatalf("tenant ledgers (%d rej, %d thr) disagree with totals (%d, %d)", rej, thr, res.Rejected, res.Throttled)
	}
}

// TestClusterTailBlameConservation armors the whole-request blame
// synthesis: across every read path — plain primary, failover off a
// dying member, hedged reads — and the write-all path,
// every request the tail recorder keeps must carry a contiguous segment
// list that partitions [arrival, completion] exactly. The keep budget is
// set to the request count so EVERY successful request is checked, not
// just the slow ones.
func TestClusterTailBlameConservation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		cfg     Config
		fault   string
		wantRes telemetry.Res // a synthetic blame label this path must produce
	}{
		{"primary", Config{Shards: 4, Replicas: 1, Tenants: 2}, "", 0},
		{"failover", Config{Shards: 4, Replicas: 2, Tenants: 2}, "nand.read:0.8", telemetry.ResFailover},
		{"hedged", Config{Shards: 4, Replicas: 2, Tenants: 2, Depth: 4,
			ReadPolicy: ReadHedged, HedgeDelay: 30 * sim.Microsecond}, "nand.read:0.8", telemetry.ResHedge},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const requests = 600
			c, start := buildTestCluster(t, testClusterOpts{cfg: tc.cfg, records: 4096, fault: tc.fault})
			tail := telemetry.NewTailRecorder(requests, requests)
			grid := telemetry.NewLatencyGrid(start)
			res := testReplayWith(t, c, start, 4096, requests, tail, grid)
			if res.Hist.Count() == 0 {
				t.Fatal("empty replay")
			}
			if got := tail.Observed(); got != res.Hist.Count() {
				t.Fatalf("tail observed %d requests, histogram has %d", got, res.Hist.Count())
			}
			heat := grid.Snapshot()
			if heat == nil || heat.Total != res.Hist.Count() {
				t.Fatalf("heatmap total %v, histogram has %d", heat, res.Hist.Count())
			}
			snap := tail.Snapshot()
			if snap == nil || len(snap.TopK) == 0 {
				t.Fatal("no tail exemplars captured")
			}
			seenRes := map[telemetry.Res]bool{}
			for _, ex := range snap.TopK {
				if len(ex.Segs) == 0 {
					t.Fatalf("exemplar seq %d has no segments", ex.Seq)
				}
				at := ex.Start
				for _, s := range ex.Segs {
					if s.Start != at {
						t.Fatalf("%s: exemplar seq %d: blame gap at %v (segment starts %v)",
							tc.name, ex.Seq, at, s.Start)
					}
					if s.End < s.Start {
						t.Fatalf("exemplar seq %d: negative segment %+v", ex.Seq, s)
					}
					at = s.End
					seenRes[s.Res] = true
				}
				if at != ex.End {
					t.Fatalf("%s: exemplar seq %d: segments end at %v, request ends at %v — conservation broken",
						tc.name, ex.Seq, at, ex.End)
				}
			}
			if tc.wantRes != 0 && !seenRes[tc.wantRes] {
				t.Errorf("%s: no blame segment tagged %q — the path's synthesized prefix never appeared",
					tc.name, tc.wantRes)
			}
		})
	}
}

// Hedged reads fire only when the primary is slow, and wins show up as a
// latency improvement over never hedging under a hot shard.
func TestClusterHedgedReads(t *testing.T) {
	t.Parallel()
	run := func(policy ReadPolicy, delay sim.Time) *Result {
		c, start := buildTestCluster(t, testClusterOpts{
			cfg:     Config{Shards: 4, Replicas: 2, Tenants: 2, Depth: 4, ReadPolicy: policy, HedgeDelay: delay},
			records: 4096,
		})
		return testReplay(t, c, start, 4096, 600)
	}
	hedged := run(ReadHedged, 30_000)
	var hedges uint64
	for _, ss := range hedged.Shards {
		hedges += ss.Hedges
	}
	if hedges == 0 {
		t.Fatal("hedged policy with a 30µs trigger issued no hedges")
	}
	plain := run(ReadPrimary, 0)
	if hedged.Hist.Count() == 0 || plain.Hist.Count() == 0 {
		t.Fatal("empty replay")
	}
	if hq, pq := hedged.Hist.Quantile(0.99), plain.Hist.Quantile(0.99); hq > pq {
		t.Logf("note: hedged p99 %v > primary p99 %v (hedges add load; not a failure)", hq, pq)
	}
}

// A fine-read shard armed at SealLoad must arm its core too: the host then
// verifies every fine DMA payload and sealed Info-Area record, so corrupted
// transfers fall back to block I/O instead of reaching the store as data.
func TestFineShardFaultsNeverServeCorruptValues(t *testing.T) {
	t.Parallel()
	const records = 20000
	c, now := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 1, Tenants: 1},
		records: records,
		fault:   "nvme.dma:0.3,hmb.ring:0.05",
	})
	sh := c.Shard(0)
	var got []byte
	var err error
	for i := 0; i < 3*records; i++ {
		rec := sim.Mix64(uint64(i)) % records
		got, now, err = sh.Store.Get(now, testKey(0, rec), got[:0])
		if err != nil {
			t.Fatalf("get %d: %v", rec, err)
		}
		if !bytes.Equal(got, testVal(0, rec)) {
			t.Fatalf("get %d served corrupted bytes", rec)
		}
	}
	f := sh.Faults()
	if f.DMACorruptions == 0 || f.DMAFallbacks != f.DMACorruptions {
		t.Fatalf("DMA corruptions %d, fallbacks %d: want equal and non-zero", f.DMACorruptions, f.DMAFallbacks)
	}
	if f.RingFallbacks == 0 {
		t.Fatal("no ring fallbacks: the core's Info-Area ring is unarmed")
	}
}
