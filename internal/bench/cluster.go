package bench

import (
	"errors"
	"fmt"
	"io"

	"pipette/internal/cluster"
	"pipette/internal/fault"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// Cluster-sweep fixed parameters: replicated cells read hedged with this
// delay (the knob the tail-latency trade-off turns on); degraded cells arm
// this profile on shard 0 — a dying member whose injected read errors
// mostly defeat the ECC retry ladder, not a flaky one that always recovers.
const (
	clusterHedgeDelay      = 50 * sim.Microsecond
	clusterDegradedProfile = "nand.read:0.6"
	clusterDegradedECCFrac = 0.5
	clusterTickEvery       = 64
	clusterReadFraction    = 0.9
)

// clusterPoint is one cell of the sweep grid: a replication factor, the
// tenants' Zipf skew, and whether one member is degraded.
type clusterPoint struct {
	replicas int
	skew     float64
	degraded bool
}

func (pt clusterPoint) mode() string {
	if pt.degraded {
		return "degraded"
	}
	return "healthy"
}

func (pt clusterPoint) policy(s Scale) cluster.ReadPolicy {
	if pt.replicas > 1 {
		return cluster.ReadHedged
	}
	return cluster.ReadPrimary
}

func (pt clusterPoint) label() string {
	return fmt.Sprintf("cluster/r%d/zipf%.2f/%s", pt.replicas, pt.skew, pt.mode())
}

// workload names the point for export rows.
func (pt clusterPoint) workload() string {
	return fmt.Sprintf("multitenant-zipf%.2f-r%d-%s", pt.skew, pt.replicas, pt.mode())
}

// clusterPoints enumerates the sweep grid in render order: per skew, per
// replication factor, the healthy cell then its one-member-degraded twin.
func clusterPoints(s Scale) []clusterPoint {
	var points []clusterPoint
	for _, skew := range s.ClusterSkews {
		for _, r := range s.ClusterReplicas {
			points = append(points, clusterPoint{replicas: r, skew: skew})
			points = append(points, clusterPoint{replicas: r, skew: skew, degraded: true})
		}
	}
	return points
}

// clusterKey names one tenant record (the pre-namespace key).
func clusterKey(rec uint64) string { return fmt.Sprintf("user%08d", rec) }

// clusterVal builds the deterministic 64-512 B payload for one record,
// appending into buf.
func clusterVal(tenant int, rec uint64, buf []byte) []byte {
	h := sim.Mix64(uint64(tenant)*0x9e3779b97f4a7c15 ^ rec ^ 0xc1a57e12)
	n := 64 + int(h%449)
	buf = buf[:0]
	for len(buf) < n {
		h = sim.Mix64(h)
		for s := 0; s < 64 && len(buf) < n; s += 8 {
			buf = append(buf, byte(h>>s))
		}
	}
	return buf
}

// clusterTenants is the sweep's tenant mix: tenant 0 is the heavy tenant
// (3x the request share of each peer — the aggressor the per-tenant token
// bucket exists for); every tenant keys with the swept Zipf skew.
func clusterTenants(s Scale, skew float64) []workload.TenantConfig {
	tenants := make([]workload.TenantConfig, s.ClusterTenants)
	for t := range tenants {
		tenants[t] = workload.TenantConfig{Weight: 1, Theta: skew, ReadFraction: clusterReadFraction}
		if t == 0 {
			tenants[t].Weight = 3
		}
	}
	return tenants
}

// clusterSlot is one finished cell's full measurement: the pool-facing
// bench result, whose Shards are the per-shard summary rows the report
// renders, and the tier's own ledger.
type clusterSlot struct {
	res  *Result
	cres *cluster.Result
}

// runClusterCell builds a private cluster, preloads every tenant's
// records, seals (arming the degraded member's faults), and replays the
// open-loop multi-tenant stream.
func runClusterCell(s Scale, pt clusterPoint) (*clusterSlot, error) {
	cfg := cluster.Config{
		Shards:     s.ClusterShards,
		Replicas:   pt.replicas,
		Tenants:    s.ClusterTenants,
		Depth:      s.ClusterDepth,
		MaxQueue:   s.ClusterQueue,
		ReadPolicy: pt.policy(s),
		TenantRate: s.ClusterTenantRate,
	}
	if cfg.ReadPolicy == cluster.ReadHedged {
		cfg.HedgeDelay = clusterHedgeDelay
	}
	var prof fault.Profile
	if pt.degraded {
		var err error
		prof, err = fault.ParseProfile(clusterDegradedProfile)
		if err != nil {
			return nil, fmt.Errorf("bench: cluster fault profile: %w", err)
		}
	}
	c, err := cluster.New(cfg, func(id int) cluster.ShardConfig {
		sc := cluster.ShardConfig{DatasetBytes: s.ClusterShardBytes, FineReads: true}
		if pt.degraded && id == 0 {
			sc.Fault = prof
			sc.FaultSeed = s.FaultSeed
			sc.ECCUncorrectableFrac = clusterDegradedECCFrac
		}
		return sc
	})
	if err != nil {
		return nil, err
	}

	valBuf := make([]byte, 0, 512)
	for t := 0; t < s.ClusterTenants; t++ {
		for rec := uint64(0); rec < s.ClusterRecords; rec++ {
			valBuf = clusterVal(t, rec, valBuf)
			if err := c.Load(kv.NamespaceKey(t, clusterKey(rec)), valBuf); err != nil {
				return nil, err
			}
		}
	}
	start, err := c.SealLoad()
	if err != nil {
		return nil, err
	}

	// Baselines taken after preload: the replay's traffic and busy-time
	// deltas exclude the load phase.
	var base metrics.Snapshot
	busy := make([][]sim.Time, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh := c.Shard(i)
		addCounters(&base, sh.Snapshot())
		busy[i] = make([]sim.Time, sh.Res.Len())
		for j := range busy[i] {
			busy[i][j] = sh.Res.At(j).Busy()
		}
	}

	mt, err := workload.NewMultiTenant(s.ClusterRecords, clusterTenants(s, pt.skew), 0x7e0a)
	if err != nil {
		return nil, err
	}
	arr, err := workload.NewPoisson(s.ClusterRate, 0xc1a5)
	if err != nil {
		return nil, err
	}
	reqBuf := make([]byte, 0, 512)
	next := func() cluster.Request {
		r := mt.Next()
		req := cluster.Request{
			Tenant: r.Tenant,
			Write:  r.Write,
			Key:    kv.NamespaceKey(r.Tenant, clusterKey(r.Record)),
		}
		if r.Write {
			reqBuf = clusterVal(r.Tenant, r.Record, reqBuf)
			req.Val = reqBuf
		}
		return req
	}
	tail := telemetry.NewTailRecorder(tailTopK, tailKeep(s.ClusterRequests))
	grid := telemetry.NewLatencyGrid(start)
	cres, err := c.Replay(next, s.ClusterRequests, cluster.ReplayOpts{
		Arrivals:            arr,
		Start:               start,
		TickEvery:           clusterTickEvery,
		TolerateMediaErrors: true,
		Tail:                tail,
		Heat:                grid,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Hist:     cres.Hist,
		Offered:  s.ClusterRate,
		Depth:    s.ClusterDepth,
		Arrivals: arr.Name(),
		Lost:     cres.Lost,
		Rejected: cres.Rejected,
		Tail:     tail.Snapshot(),
		Heat:     grid.Snapshot(),

		Name:      "cluster",
		Workload:  pt.workload(),
		Throttled: cres.Throttled,
		Shards:    make([]report.ShardSummary, cfg.Shards),
	}
	cur := metrics.Snapshot{Name: "cluster"}
	for i, ss := range cres.Shards {
		sh := c.Shard(i)
		addCounters(&cur, sh.Snapshot())
		sa := sh.SA.Snapshot()
		res.Stages.Merge(&sa)
		var util float64
		for j := range busy[i] {
			if cres.Elapsed <= 0 {
				break
			}
			if f := float64(sh.Res.At(j).Busy()-busy[i][j]) / float64(cres.Elapsed); f > util {
				util = f
			}
		}
		res.Shards[i] = report.ShardSummary{
			Shard:         ss.Shard,
			Primary:       ss.Primary,
			Executions:    ss.Executions,
			ReplicaWrites: ss.ReplicaWrites,
			Hedges:        ss.Hedges,
			Failovers:     ss.Failovers,
			Rejected:      ss.Rejected,
			MediaErrors:   ss.MediaErrors,
			Faulted:       ss.Faulted,
			Utilization:   util,
		}
	}
	res.Snapshot = measured(cur, base, &cres.Hist, cres.Elapsed)
	return &clusterSlot{res: res, cres: cres}, nil
}

// writeCluster runs the serving-tier sweep: replication factor x tenant
// Zipf skew, each point healthy and with one member degraded, over a
// multi-tenant open-loop stream with per-tenant token-bucket QoS and
// bounded per-shard admission FIFOs. It prints the trade-off table
// (goodput, tails, backpressure, hot-shard concentration) plus per-shard
// ledgers for the highest-skew points; each point's run record carries the
// per-shard summaries the HTML report's cluster section renders. Each
// point is a pool cell over a private tier; rendering happens after all
// complete, in grid order, so the output is byte-identical at any worker
// count.
func writeCluster(w io.Writer, s Scale, p *Pool) error {
	if s.ClusterShards <= 0 || len(s.ClusterReplicas) == 0 || len(s.ClusterSkews) == 0 ||
		s.ClusterRequests <= 0 || s.ClusterRecords == 0 {
		return errors.New("bench: scale has no cluster sweep parameters")
	}
	points := clusterPoints(s)
	slots := make([]*clusterSlot, len(points))

	cells := make([]Cell, len(points))
	for i, pt := range points {
		i, pt := i, pt
		cells[i] = Cell{
			Label: pt.label(),
			Run: func() (*Result, error) {
				slot, err := runClusterCell(s, pt)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", pt.label(), err)
				}
				slots[i] = slot
				return slot.res, nil
			},
		}
	}
	if err := p.RunCells(cells); err != nil {
		return err
	}

	fmt.Fprintf(w, "=== Cluster tier: %d shards x %d tenants, replication x skew (scale %s, %d requests/cell) ===\n",
		s.ClusterShards, s.ClusterTenants, s.Name, s.ClusterRequests)
	renderClusterTable(w, s, points, slots)
	fmt.Fprintln(w)
	renderClusterShards(w, s, points, slots)
	return nil
}

func renderClusterTable(w io.Writer, s Scale, points []clusterPoint, slots []*clusterSlot) {
	t := &simpleTable{header: []string{
		"skew", "R", "mode", "policy", "offered/s", "goodput/s",
		"p50(us)", "p99(us)", "rejected", "throttled", "lost", "hot%", "hedges", "failovers"}}
	for i, pt := range points {
		sl := slots[i]
		if sl == nil {
			continue
		}
		var hedges, failovers uint64
		for _, ss := range sl.cres.Shards {
			hedges += ss.Hedges
			failovers += ss.Failovers
		}
		t.addRow(
			fmt.Sprintf("%.2f", pt.skew),
			fmt.Sprintf("%d", pt.replicas),
			pt.mode(),
			pt.policy(s).String(),
			fmt.Sprintf("%.0f", s.ClusterRate),
			fmt.Sprintf("%.0f", sl.cres.Goodput()),
			fmt.Sprintf("%.2f", sl.cres.Hist.Quantile(0.50).Micros()),
			fmt.Sprintf("%.2f", sl.cres.Hist.Quantile(0.99).Micros()),
			fmt.Sprintf("%d", sl.cres.Rejected),
			fmt.Sprintf("%d", sl.cres.Throttled),
			fmt.Sprintf("%d", sl.cres.Lost),
			fmt.Sprintf("%.1f", 100*report.HotShardShare(sl.res.Shards)),
			fmt.Sprintf("%d", hedges),
			fmt.Sprintf("%d", failovers),
		)
	}
	io.WriteString(w, t.render())
}

// renderClusterShards prints the per-shard ledgers for the highest-skew,
// highest-replication points — the cells where hot-shard concentration and
// the degraded member's failovers are most visible.
func renderClusterShards(w io.Writer, s Scale, points []clusterPoint, slots []*clusterSlot) {
	maxSkew := s.ClusterSkews[0]
	for _, sk := range s.ClusterSkews {
		if sk > maxSkew {
			maxSkew = sk
		}
	}
	maxR := s.ClusterReplicas[0]
	for _, r := range s.ClusterReplicas {
		if r > maxR {
			maxR = r
		}
	}
	for i, pt := range points {
		sl := slots[i]
		if sl == nil || pt.skew != maxSkew || pt.replicas != maxR {
			continue
		}
		fmt.Fprintf(w, "per-shard ledger (skew=%.2f, R=%d, %s):\n", pt.skew, pt.replicas, pt.mode())
		t := &simpleTable{header: []string{
			"shard", "primary", "share%", "execs", "repl.writes",
			"hedges", "failovers", "rejected", "media.err", "util%"}}
		var total uint64
		for _, ss := range sl.res.Shards {
			total += ss.Primary
		}
		for _, ss := range sl.res.Shards {
			name := fmt.Sprintf("%d", ss.Shard)
			if ss.Faulted {
				name += "*"
			}
			share := 0.0
			if total > 0 {
				share = 100 * float64(ss.Primary) / float64(total)
			}
			t.addRow(
				name,
				fmt.Sprintf("%d", ss.Primary),
				fmt.Sprintf("%.1f", share),
				fmt.Sprintf("%d", ss.Executions),
				fmt.Sprintf("%d", ss.ReplicaWrites),
				fmt.Sprintf("%d", ss.Hedges),
				fmt.Sprintf("%d", ss.Failovers),
				fmt.Sprintf("%d", ss.Rejected),
				fmt.Sprintf("%d", ss.MediaErrors),
				fmt.Sprintf("%.1f", 100*ss.Utilization),
			)
		}
		io.WriteString(w, t.render())
		fmt.Fprintln(w, "  (* = fault profile armed)")
	}
}
