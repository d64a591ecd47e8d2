package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// ReadPolicy selects how a replicated read uses its replica set.
type ReadPolicy int

const (
	// ReadPrimary sends the read to the ring-first replica only, failing
	// over to the next replica (at the failure's virtual time) on an
	// uncorrectable media error.
	ReadPrimary ReadPolicy = iota
	// ReadFanout issues the read to every replica at dispatch; the first
	// successful completion in virtual time wins. Failover is implicit —
	// a faulted replica simply never wins.
	ReadFanout
	// ReadHedged sends to the primary, and if the primary has not
	// completed within HedgeDelay, issues one hedge to the next replica;
	// the earlier success wins. Uncorrectable primary errors fail over
	// through the remaining replicas like ReadPrimary.
	ReadHedged
)

// String names the policy for tables and flags.
func (p ReadPolicy) String() string {
	switch p {
	case ReadPrimary:
		return "primary"
	case ReadFanout:
		return "fanout"
	case ReadHedged:
		return "hedged"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config parameterizes the serving tier.
type Config struct {
	Shards   int // member count (>= 1)
	Replicas int // copies per key, clamped to [1, Shards]
	Tenants  int // tenant namespaces (>= 1)

	// Depth bounds each shard's in-flight requests; arrivals past it wait
	// in the shard's admission FIFO (<= 0 = 16).
	Depth int
	// MaxQueue bounds each shard's admission FIFO: an arrival that would
	// have to wait while MaxQueue requests already wait is rejected with
	// backpressure. 0 = unbounded (no rejects).
	MaxQueue int

	// ReadPolicy selects the replicated-read strategy; HedgeDelay is the
	// hedged policy's wait before the second copy is tried.
	ReadPolicy ReadPolicy
	HedgeDelay sim.Time

	// TenantRate is the per-tenant token-bucket refill rate in ops per
	// virtual second (0 = no per-tenant limit); TenantBurst the bucket
	// capacity (<= 0 = max(4, TenantRate/20)).
	TenantRate  float64
	TenantBurst float64
}

func (cfg *Config) setDefaults() error {
	if cfg.Shards < 1 {
		return errors.New("cluster: needs at least one shard")
	}
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Shards {
		cfg.Replicas = cfg.Shards
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 16
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.ReadPolicy == ReadHedged && cfg.HedgeDelay <= 0 {
		return errors.New("cluster: hedged reads need HedgeDelay > 0")
	}
	if cfg.TenantRate > 0 && cfg.TenantBurst <= 0 {
		cfg.TenantBurst = cfg.TenantRate / 20
		if cfg.TenantBurst < 4 {
			cfg.TenantBurst = 4
		}
	}
	return nil
}

// tokenBucket is one tenant's rate limiter over virtual time.
type tokenBucket struct {
	rate   float64 // tokens per virtual second
	burst  float64
	tokens float64
	last   sim.Time
}

func (tb *tokenBucket) allow(now sim.Time) bool {
	if tb.rate <= 0 {
		return true
	}
	if dt := now - tb.last; dt > 0 {
		tb.tokens += dt.Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// maxReplicas bounds the replica set a single request tracks.
const maxReplicas = 8

// Cluster is the assembled serving tier: the ring, the shards, and the
// per-tenant admission state. Like every simulated system in this repo it
// is single-threaded; the internal mutex only protects the statistics a
// live /metrics scraper reads against the replay mutating them.
type Cluster struct {
	cfg    Config
	ring   *Ring
	shards []*Shard

	mu      sync.Mutex
	buckets []tokenBucket
	now     sim.Time // virtual-time frontier (load + replay)

	repScratch []int
}

// New assembles a cluster of cfg.Shards shards; shardCfg returns the
// stack configuration for each member (letting one member arm a fault
// profile for degraded-mode runs).
func New(cfg Config, shardCfg func(id int) ShardConfig) (*Cluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.Replicas > maxReplicas {
		return nil, fmt.Errorf("cluster: replicas %d exceeds limit %d", cfg.Replicas, maxReplicas)
	}
	c := &Cluster{cfg: cfg, ring: NewRing()}
	for id := 0; id < cfg.Shards; id++ {
		sh, err := NewShard(id, shardCfg(id))
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
		c.ring.Add(id)
	}
	c.buckets = make([]tokenBucket, cfg.Tenants)
	for t := range c.buckets {
		c.buckets[t] = tokenBucket{rate: cfg.TenantRate, burst: cfg.TenantBurst, tokens: cfg.TenantBurst}
	}
	return c, nil
}

// Shard returns member i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Route returns the replica set (primary first) for a namespaced key,
// appending into dst.
func (c *Cluster) Route(key string, dst []int) []int {
	return c.ring.LookupN(HashKey(key), c.cfg.Replicas, dst)
}

// Load preloads one record onto every replica of its key. Load is setup:
// each shard's virtual clock advances independently and the replay later
// starts past all of them, so preload cost never pollutes measurements.
func (c *Cluster) Load(key string, val []byte) error {
	c.repScratch = c.Route(key, c.repScratch)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.repScratch {
		sh := c.shards[r]
		done, err := sh.Store.Put(sh.loadClock, key, val)
		if err != nil {
			return fmt.Errorf("cluster: load shard %d: %w", r, err)
		}
		sh.loadClock = done
	}
	return nil
}

// SealLoad syncs every shard's store, arms any configured fault profiles
// (the degraded member fails in service, after its dataset is in place),
// and returns the cluster-wide load frontier — the earliest virtual time a
// replay may start at.
func (c *Cluster) SealLoad() (sim.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max sim.Time
	for _, sh := range c.shards {
		done, err := sh.Store.Sync(sh.loadClock)
		if err != nil {
			return 0, fmt.Errorf("cluster: seal shard %d: %w", sh.ID, err)
		}
		sh.loadClock = done
		if sh.Inj == nil {
			sh.Arm(sh.cfg.Fault.NewInjector(sh.cfg.FaultSeed))
		}
		if done > max {
			max = done
		}
	}
	if max > c.now {
		c.now = max
	}
	return max, nil
}

// Request is one tenant operation offered to the tier. Key must already
// carry its tenant namespace (kv.NamespaceKey); Tenant indexes the QoS
// accounting. Val is the write payload, copied at admission.
type Request struct {
	Tenant int
	Write  bool
	Key    string
	Val    []byte
}

// ShardStats is one member's replay ledger.
type ShardStats struct {
	Shard         int    `json:"shard"`
	Primary       uint64 `json:"primary"`        // requests routed here as primary
	Executions    uint64 `json:"executions"`     // store executions, replica work included
	ReplicaWrites uint64 `json:"replica_writes"` // secondary copies written here
	Fanouts       uint64 `json:"fanouts"`        // fan-out reads served here
	Hedges        uint64 `json:"hedges"`         // hedge reads served here
	Failovers     uint64 `json:"failovers"`      // failover reads served here
	Rejected      uint64 `json:"rejected"`       // arrivals bounced off the full FIFO
	MediaErrors   uint64 `json:"media_errors"`   // executions lost to uncorrectable errors
	Faulted       bool   `json:"faulted,omitempty"`
}

// TenantStats is one tenant's replay ledger, including its private latency
// distribution — the per-tenant QoS view.
type TenantStats struct {
	Tenant    int
	Arrived   uint64
	Throttled uint64 // bounced by the token bucket
	Rejected  uint64 // bounced by a full shard FIFO
	Lost      uint64 // admitted but failed on every replica
	Hist      metrics.Histogram
}

// Result is one cluster replay's measurement.
type Result struct {
	Arrived   uint64
	Admitted  uint64
	Rejected  uint64
	Throttled uint64
	Lost      uint64

	Hist    metrics.Histogram // arrival -> completion, admitted successes
	Start   sim.Time
	Elapsed sim.Time // start of replay to last completion

	Shards  []ShardStats
	Tenants []TenantStats
}

// Goodput reports completed ops per virtual second.
func (r *Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Hist.Count()) / r.Elapsed.Seconds()
}

// ReplayOpts configures one open-loop replay.
type ReplayOpts struct {
	// Arrivals is the arrival process (required).
	Arrivals workload.Arrivals
	// Start is the replay's virtual start time; it must be at or past
	// SealLoad's frontier so per-shard time stays monotone.
	Start sim.Time
	// TickEvery runs one maintenance (compaction) tick on a shard every N
	// requests it dispatches (0 = never).
	TickEvery int
	// TolerateMediaErrors counts uncorrectable media errors as lost
	// requests instead of failing the replay — the right semantics with a
	// fault profile armed on a member.
	TolerateMediaErrors bool

	// Tail, when set, captures the replay's slowest requests. Each
	// successful request is offered with whole-request blame synthesized
	// along its winning leg: the FIFO wait ([arrival, dispatch), queue
	// stage, "admission"), then for secondary legs the dispatch gap (the
	// hedge delay as queue/"hedge", failed prior legs as
	// retry/"failover"), then the winning leg's own device segments. The
	// synthesized segments partition [arrival, completion] exactly — the
	// same conservation discipline StageAccount enforces per shard.
	Tail *telemetry.TailRecorder
	// Heat, when set, observes every successful completion (the same
	// population as the latency histogram).
	Heat *telemetry.LatencyGrid
}

// pending is one admitted request waiting in (or dispatched from) its
// primary shard's FIFO.
type pending struct {
	arrival sim.Time
	tenant  int32
	write   bool
	nrep    int8
	reps    [maxReplicas]int32
	key     string
	val     []byte
}

// shardQ is one shard's replay-local admission state.
type shardQ struct {
	queue      []pending
	head       int
	inFlight   int
	dispatched int
}

// tolerable reports whether err is a media-level loss the replay may
// absorb (an uncorrectable read, or a key whose record was lost to one).
func tolerable(err error) bool {
	return errors.Is(err, nvme.ErrUncorrectable) || errors.Is(err, kv.ErrNotFound)
}

// Replay drives an open-loop request stream through the tier: arrivals on
// opts.Arrivals' schedule, per-tenant token-bucket admission, consistent-
// hash routing to the primary shard's bounded FIFO (reject with
// backpressure when full), dispatch under the per-shard depth bound, and
// R-way replication — writes copy to every replica and complete with the
// slowest, reads follow cfg.ReadPolicy and complete with the first
// success. One discrete-event engine sequences every arrival, dispatch,
// hedge, failover, and completion across all shards by (time, seq), so a
// whole-cluster replay is deterministic.
func (c *Cluster) Replay(next func() Request, requests int, opts ReplayOpts) (*Result, error) {
	if opts.Arrivals == nil {
		return nil, errors.New("cluster: replay needs an arrival process")
	}
	if requests <= 0 {
		return nil, errors.New("cluster: replay needs requests > 0")
	}
	start := opts.Start
	c.mu.Lock()
	if start < c.now {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: replay start %v is before the load frontier %v", start, c.now)
	}
	c.mu.Unlock()

	res := &Result{Start: start}
	res.Shards = make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		res.Shards[i] = ShardStats{Shard: i, Faulted: sh.Faulted()}
	}
	res.Tenants = make([]TenantStats, c.cfg.Tenants)
	for t := range res.Tenants {
		res.Tenants[t].Tenant = t
	}

	eng := sim.NewEngine()
	qs := make([]shardQ, len(c.shards))
	var (
		arrived  int
		lastDone = start
		runErr   error
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	bump := func(t sim.Time) {
		if t > lastDone {
			lastDone = t
		}
	}
	observe := func(p *pending, done sim.Time) {
		bump(done)
		res.Hist.Observe(done - p.arrival)
		res.Tenants[p.tenant].Hist.Observe(done - p.arrival)
		opts.Heat.Observe(done, done-p.arrival)
	}
	lose := func(p *pending, at sim.Time) {
		bump(at)
		res.Lost++
		res.Tenants[p.tenant].Lost++
	}

	// observeTail offers a successful request to the tail recorder with
	// whole-request blame synthesized along its winning leg (see
	// ReplayOpts.Tail). legSegs is the winning leg's captured segment list
	// (it begins at the request's arrival for primary legs, which carry
	// PreQueue, and at the leg's own start otherwise); gap labels the
	// dispatch→leg-start interval of secondary legs.
	var tailScratch []telemetry.StageSeg
	observeTail := func(p *pending, done, dispatch, legStart sim.Time, legSegs []telemetry.StageSeg, gap telemetry.Stage, gapRes telemetry.Res) {
		if opts.Tail == nil {
			return
		}
		legFrom := legStart
		if len(legSegs) > 0 {
			legFrom = legSegs[0].Start
		} else if legFrom > done {
			legFrom = done
		}
		segs := tailScratch[:0]
		if dispatch > legFrom {
			dispatch = legFrom
		}
		if p.arrival < dispatch {
			segs = append(segs, telemetry.StageSeg{
				Stage: telemetry.StageQueue, Res: telemetry.ResAdmission,
				Start: p.arrival, End: dispatch})
		}
		if dispatch < legFrom {
			segs = append(segs, telemetry.StageSeg{
				Stage: gap, Res: gapRes, Start: dispatch, End: legFrom})
		}
		segs = append(segs, legSegs...)
		if len(legSegs) == 0 && legFrom < done {
			// Leg with no device attribution (stage account disarmed):
			// keep the partition contiguous anyway.
			segs = append(segs, telemetry.StageSeg{
				Stage: telemetry.StageOther, Start: legFrom, End: done})
		}
		opts.Tail.Observe(segs, p.arrival, done)
		tailScratch = segs
	}

	// exec runs one store operation on shard si at virtual time now. The
	// primary execution of an admitted request carries the arrival time so
	// its FIFO wait lands in the queue stage; replica work opens a plain
	// scope. The cluster mutex makes the shard's mutating state safe
	// against a concurrent /metrics scraper. With a tail recorder armed it
	// also returns a copy of the leg's attributed segments, the raw
	// material of the winning leg's blame.
	exec := func(si int32, now sim.Time, p *pending, primary bool) (sim.Time, []telemetry.StageSeg, error) {
		sh := c.shards[si]
		c.mu.Lock()
		if primary {
			sh.SA.PreQueue(p.arrival)
		}
		sh.SA.Begin(now)
		var done sim.Time
		var err error
		if p.write {
			done, err = sh.Store.Put(now, p.key, p.val)
		} else {
			sh.readBuf, done, err = sh.Store.Get(now, p.key, sh.readBuf[:0])
		}
		sh.SA.Finish(done)
		var segs []telemetry.StageSeg
		if opts.Tail != nil {
			segs = append(segs, sh.SA.LastSegs()...)
		}
		res.Shards[si].Executions++
		if err != nil && tolerable(err) {
			res.Shards[si].MediaErrors++
		}
		if done > c.now {
			c.now = done
		}
		c.mu.Unlock()
		bump(done)
		if err != nil && (!opts.TolerateMediaErrors || !tolerable(err)) {
			fail(fmt.Errorf("cluster: shard %d %s %q: %w", si, opString(p.write), p.key, err))
		}
		return done, segs, err
	}

	var admit func(si int32, now sim.Time)
	release := func(si int32) func(sim.Time) {
		return func(now sim.Time) {
			qs[si].inFlight--
			admit(si, now)
		}
	}

	// tryFailover walks the remaining replicas at each failure's virtual
	// time until one succeeds or the set is exhausted. dispatch is the
	// request's primary dispatch time: the succeeding leg's blame charges
	// [dispatch, leg start) — the failed prior attempts — to
	// retry/"failover".
	var tryFailover func(p pending, k int, dispatch, at sim.Time)
	tryFailover = func(p pending, k int, dispatch, at sim.Time) {
		if runErr != nil {
			return
		}
		if int(k) >= int(p.nrep) {
			lose(&p, at)
			return
		}
		r := p.reps[k]
		res.Shards[r].Failovers++
		done, segs, err := exec(r, at, &p, false)
		if runErr != nil {
			return
		}
		if err == nil {
			observe(&p, done)
			observeTail(&p, done, dispatch, at, segs, telemetry.StageRetry, telemetry.ResFailover)
			return
		}
		eng.At(done, func(t sim.Time) { tryFailover(p, k+1, dispatch, t) })
	}

	dispatchRead := func(si int32, now sim.Time, p pending) {
		if c.cfg.ReadPolicy == ReadFanout && p.nrep > 1 {
			// Fan out to every replica at dispatch; first success wins.
			var best sim.Time
			var bestSegs []telemetry.StageSeg
			ok := false
			var lastFail sim.Time
			for k := int8(0); k < p.nrep; k++ {
				r := p.reps[k]
				if k > 0 {
					res.Shards[r].Fanouts++
				}
				done, segs, err := exec(r, now, &p, k == 0)
				if runErr != nil {
					return
				}
				if k == 0 {
					eng.At(done, release(si))
				}
				if err == nil {
					if !ok || done < best {
						best = done
						bestSegs = segs
					}
					ok = true
				} else if done > lastFail {
					lastFail = done
				}
			}
			if ok {
				observe(&p, best)
				observeTail(&p, best, now, now, bestSegs, 0, 0)
			} else {
				lose(&p, lastFail)
			}
			return
		}

		done1, segs1, err1 := exec(si, now, &p, true)
		if runErr != nil {
			return
		}
		eng.At(done1, release(si))
		if err1 != nil {
			eng.At(done1, func(t sim.Time) { tryFailover(p, 1, now, t) })
			return
		}
		if c.cfg.ReadPolicy == ReadHedged && p.nrep > 1 && done1 > now+c.cfg.HedgeDelay {
			// The primary is slow: hedge to the next replica, earlier
			// success wins. Both completions land past the hedge time, so
			// the event order stays monotone per shard.
			hs := p.reps[1]
			eng.At(now+c.cfg.HedgeDelay, func(t sim.Time) {
				if runErr != nil {
					return
				}
				res.Shards[hs].Hedges++
				done2, segs2, err2 := exec(hs, t, &p, false)
				if runErr != nil {
					return
				}
				best := done1
				if err2 == nil && done2 < best {
					best = done2
				}
				observe(&p, best)
				if best == done1 {
					observeTail(&p, done1, now, now, segs1, 0, 0)
				} else {
					// The hedge won: the wait for the hedge to fire is
					// part of the critical path, blamed queue/"hedge".
					observeTail(&p, done2, now, t, segs2, telemetry.StageQueue, telemetry.ResHedge)
				}
			})
			return
		}
		observe(&p, done1)
		observeTail(&p, done1, now, now, segs1, 0, 0)
	}

	dispatchWrite := func(si int32, now sim.Time, p pending) {
		// The primary copy is charged the queue wait; replica copies write
		// concurrently at dispatch. Durability is write-all: the request
		// completes with its slowest successful copy, and fails only when
		// the primary copy fails.
		done1, segs1, err1 := exec(si, now, &p, true)
		if runErr != nil {
			return
		}
		eng.At(done1, release(si))
		worst := done1
		worstSegs := segs1
		for k := int8(1); k < p.nrep; k++ {
			r := p.reps[k]
			res.Shards[r].ReplicaWrites++
			done, segs, err := exec(r, now, &p, false)
			if runErr != nil {
				return
			}
			if err == nil && done > worst {
				worst = done
				worstSegs = segs
			}
		}
		if err1 != nil {
			lose(&p, done1)
			return
		}
		observe(&p, worst)
		observeTail(&p, worst, now, now, worstSegs, 0, 0)
	}

	admit = func(si int32, now sim.Time) {
		q := &qs[si]
		for runErr == nil && q.inFlight < c.cfg.Depth && q.head < len(q.queue) {
			p := q.queue[q.head]
			q.queue[q.head] = pending{} // release the payload
			q.head++
			q.dispatched++
			if opts.TickEvery > 0 && q.dispatched%opts.TickEvery == 0 {
				c.mu.Lock()
				_, _, err := c.shards[si].Store.MaintenanceTick(now)
				c.mu.Unlock()
				if err != nil && (!opts.TolerateMediaErrors || !tolerable(err)) {
					fail(fmt.Errorf("cluster: shard %d compaction: %w", si, err))
					return
				}
			}
			q.inFlight++
			if p.write {
				dispatchWrite(si, now, p)
			} else {
				dispatchRead(si, now, p)
			}
		}
		if q.head == len(q.queue) {
			q.queue = q.queue[:0]
			q.head = 0
		}
	}

	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		if runErr != nil {
			return
		}
		req := next()
		arrived++
		if arrived < requests {
			eng.At(now+opts.Arrivals.Next(), arrive)
		}
		res.Arrived++
		ts := &res.Tenants[req.Tenant]
		ts.Arrived++
		c.mu.Lock()
		allowed := c.buckets[req.Tenant].allow(now)
		c.mu.Unlock()
		if !allowed {
			ts.Throttled++
			res.Throttled++
			return
		}
		p := pending{arrival: now, tenant: int32(req.Tenant), write: req.Write, key: req.Key}
		if req.Write {
			p.val = append([]byte(nil), req.Val...)
		}
		c.repScratch = c.Route(req.Key, c.repScratch)
		p.nrep = int8(len(c.repScratch))
		for i, r := range c.repScratch {
			p.reps[i] = int32(r)
		}
		si := p.reps[0]
		q := &qs[si]
		res.Shards[si].Primary++
		if c.cfg.MaxQueue > 0 && q.inFlight >= c.cfg.Depth && len(q.queue)-q.head >= c.cfg.MaxQueue {
			res.Shards[si].Rejected++
			res.Rejected++
			ts.Rejected++
			return
		}
		res.Admitted++
		q.queue = append(q.queue, p)
		admit(si, now)
	}
	eng.At(start+opts.Arrivals.Next(), arrive)
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	res.Elapsed = lastDone - start
	return res, nil
}

func opString(write bool) string {
	if write {
		return "put"
	}
	return "get"
}

// RegisterMetrics mirrors every shard's stage account and resource
// occupancy into reg with a per-shard label, so one /metrics scrape covers
// the whole tier: the stage histograms and resource series a
// single-device system exports, each gaining shard=<id>.
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	now := func() sim.Time { return c.now }
	for _, sh := range c.shards {
		lbl := telemetry.L("shard", strconv.Itoa(sh.ID))
		sh.SA.BindRegistry(reg, lbl)
		sh.Res.RegisterMetrics(reg, &c.mu, now, lbl)
	}
}
