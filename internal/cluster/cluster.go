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

// pending is one admitted request, in a recycled slot from admission until
// it completes or is lost. dispatch is its primary dispatch time; a read
// still open after dispatch keeps its primary completion (done1, which a
// hedge races) and the replica a failover tries next. With a tail recorder
// armed, segs holds the primary (for a write, the slowest) leg's segments.
type pending struct {
	arrival, dispatch, done1 sim.Time
	tenant                   int32
	write                    bool
	nrep, next               int8
	reps                     [maxReplicas]int32
	key                      string
	val                      []byte
	segs                     []telemetry.StageSeg
}

// shardQ is one shard's replay-local admission state: a FIFO of pending
// slots and the dispatch bookkeeping.
type shardQ struct {
	queue      []int32
	head       int
	inFlight   int
	dispatched int
}

// evKind is what a replay event does when it pops.
type evKind uint8

const (
	evArrival  evKind = iota // the next request arrives
	evRelease                // a primary leg completes: its shard frees a depth slot
	evHedge                  // a slow primary read's hedge fires
	evFailover               // a failed read leg completes: try the next replica
)

// event is one scheduled replay step, a plain record: shard names the
// released shard, slot the hedged or failing-over request.
type event struct {
	kind  evKind
	shard int32
	slot  int32
}

// replay is one Replay call's state.
type replay struct {
	c    *Cluster
	opts ReplayOpts
	res  *Result

	q        sim.EventQueue[event]
	now      sim.Time // the popped event's time
	lastDone sim.Time
	err      error
	qs       []shardQ
	slots    []pending
	free     []int32 // recycled slot indices

	legSegs, tailScratch []telemetry.StageSeg
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
// success. One loop pops arrival, release, hedge and failover records from
// an event queue by (time, push order) across all shards, so a
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

	r := &replay{c: c, opts: opts, res: res, qs: make([]shardQ, len(c.shards)), lastDone: start}
	r.push(start+opts.Arrivals.Next(), event{kind: evArrival})
	for arrived := 0; r.err == nil; {
		at, ev, ok := r.q.Pop()
		if !ok {
			break
		}
		r.now = at
		switch ev.kind {
		case evArrival:
			req := next()
			if arrived++; arrived < requests {
				r.push(at+opts.Arrivals.Next(), event{kind: evArrival})
			}
			r.arrive(req)
		case evRelease:
			r.qs[ev.shard].inFlight--
			r.admit(ev.shard)
		case evHedge:
			r.hedge(ev.slot)
		case evFailover:
			r.failover(ev.slot)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	res.Elapsed = r.lastDone - start
	return res, nil
}

// push schedules ev at time at, clamped to the current time.
func (r *replay) push(at sim.Time, ev event) {
	r.q.Push(max(at, r.now), ev)
}

// win completes slot's request at done, observing its latency, offering it
// to the tail recorder with whole-request blame synthesized along its
// winning leg (see ReplayOpts.Tail), and recycling the slot. legSegs is
// that leg's captured segment list (it begins at the request's arrival for
// primary legs, which carry PreQueue, and at legStart otherwise); gap
// labels the dispatch→leg-start interval of secondary legs.
func (r *replay) win(slot int32, done, legStart sim.Time, legSegs []telemetry.StageSeg, gap telemetry.Stage, gapRes telemetry.Res) {
	p := &r.slots[slot]
	r.lastDone = max(r.lastDone, done)
	r.res.Hist.Observe(done - p.arrival)
	r.res.Tenants[p.tenant].Hist.Observe(done - p.arrival)
	r.opts.Heat.Observe(done, done-p.arrival)
	if r.opts.Tail != nil {
		legFrom := legStart
		if len(legSegs) > 0 {
			legFrom = legSegs[0].Start
		} else if legFrom > done {
			legFrom = done
		}
		dispatch := min(p.dispatch, legFrom)
		segs := r.tailScratch[:0]
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
		r.opts.Tail.Observe(segs, p.arrival, done)
		r.tailScratch = segs
	}
	r.recycle(slot)
}

// lose counts slot's request as lost at time at and recycles the slot.
func (r *replay) lose(slot int32, at sim.Time) {
	r.lastDone = max(r.lastDone, at)
	r.res.Lost++
	r.res.Tenants[r.slots[slot].tenant].Lost++
	r.recycle(slot)
}

// recycle returns a slot to the pool, dropping its key and payload; the
// segment buffer stays for the next request.
func (r *replay) recycle(slot int32) {
	r.slots[slot].key, r.slots[slot].val = "", nil
	r.free = append(r.free, slot)
}

// exec runs one store operation for slot's request on shard si at the
// current time. The primary execution carries the arrival time so its
// FIFO wait lands in the queue stage; replica work opens a plain scope.
// The cluster mutex makes the shard's mutating state safe against a
// concurrent /metrics scraper. With a tail recorder armed it also copies
// the leg's attributed segments into r.legSegs.
func (r *replay) exec(si, slot int32, primary bool) (sim.Time, error) {
	p, sh, now := &r.slots[slot], r.c.shards[si], r.now
	r.c.mu.Lock()
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
	if r.opts.Tail != nil {
		r.legSegs = append(r.legSegs[:0], sh.SA.LastSegs()...)
	}
	r.res.Shards[si].Executions++
	if err != nil && tolerable(err) {
		r.res.Shards[si].MediaErrors++
	}
	r.c.now = max(r.c.now, done)
	r.c.mu.Unlock()
	r.lastDone = max(r.lastDone, done)
	if err != nil && (!r.opts.TolerateMediaErrors || !tolerable(err)) {
		op := "get"
		if p.write {
			op = "put"
		}
		r.err = fmt.Errorf("cluster: shard %d %s %q: %w", si, op, p.key, err)
	}
	return done, err
}

// arrive offers one request at the current time: token-bucket admission,
// routing, and the primary shard's bounded FIFO.
func (r *replay) arrive(req Request) {
	c, res := r.c, r.res
	res.Arrived++
	ts := &res.Tenants[req.Tenant]
	ts.Arrived++
	c.mu.Lock()
	allowed := c.buckets[req.Tenant].allow(r.now)
	c.mu.Unlock()
	if !allowed {
		ts.Throttled++
		res.Throttled++
		return
	}
	c.repScratch = c.Route(req.Key, c.repScratch)
	si := int32(c.repScratch[0])
	q := &r.qs[si]
	res.Shards[si].Primary++
	if c.cfg.MaxQueue > 0 && q.inFlight >= c.cfg.Depth && len(q.queue)-q.head >= c.cfg.MaxQueue {
		res.Shards[si].Rejected++
		res.Rejected++
		ts.Rejected++
		return
	}
	res.Admitted++
	var slot int32
	if n := len(r.free); n > 0 {
		slot, r.free = r.free[n-1], r.free[:n-1]
	} else {
		slot = int32(len(r.slots))
		r.slots = append(r.slots, pending{})
	}
	p := &r.slots[slot]
	p.arrival, p.tenant, p.write, p.key = r.now, int32(req.Tenant), req.Write, req.Key
	if req.Write {
		p.val = append([]byte(nil), req.Val...)
	}
	p.nrep = int8(len(c.repScratch))
	for i, rep := range c.repScratch {
		p.reps[i] = int32(rep)
	}
	q.queue = append(q.queue, slot)
	r.admit(si)
}

// admit dispatches shard si's FIFO head while the depth bound allows.
func (r *replay) admit(si int32) {
	c, q := r.c, &r.qs[si]
	for r.err == nil && q.inFlight < c.cfg.Depth && q.head < len(q.queue) {
		slot := q.queue[q.head]
		q.head++
		q.dispatched++
		if r.opts.TickEvery > 0 && q.dispatched%r.opts.TickEvery == 0 {
			c.mu.Lock()
			_, _, err := c.shards[si].Store.MaintenanceTick(r.now)
			c.mu.Unlock()
			if err != nil && (!r.opts.TolerateMediaErrors || !tolerable(err)) {
				r.err = fmt.Errorf("cluster: shard %d compaction: %w", si, err)
				return
			}
		}
		q.inFlight++
		r.slots[slot].dispatch = r.now
		if r.slots[slot].write {
			r.dispatchWrite(si, slot)
		} else {
			r.dispatchRead(si, slot)
		}
	}
	if q.head == len(q.queue) {
		q.queue = q.queue[:0]
		q.head = 0
	}
}

// dispatchRead runs a read's primary leg. A failed primary fails over at
// its completion; a slow one under ReadHedged hedges after HedgeDelay.
// Both keep the slot open; otherwise the read completes here.
func (r *replay) dispatchRead(si, slot int32) {
	done1, err1 := r.exec(si, slot, true)
	if r.err != nil {
		return
	}
	r.push(done1, event{kind: evRelease, shard: si})
	p, cfg := &r.slots[slot], &r.c.cfg
	switch {
	case err1 != nil:
		p.next = 1
		r.push(done1, event{kind: evFailover, slot: slot})
	case cfg.ReadPolicy == ReadHedged && p.nrep > 1 && done1 > r.now+cfg.HedgeDelay:
		// The primary is slow: hedge to the next replica, earlier success
		// wins. Both completions land past the hedge time, so the event
		// order stays monotone per shard.
		p.done1 = done1
		p.segs, r.legSegs = r.legSegs, p.segs
		r.push(r.now+cfg.HedgeDelay, event{kind: evHedge, slot: slot})
	default:
		r.win(slot, done1, r.now, r.legSegs, 0, 0)
	}
}

// hedge issues a slow read's second copy to its next replica at the
// current time; the earlier success of the two legs completes the read.
func (r *replay) hedge(slot int32) {
	p := &r.slots[slot]
	hs := p.reps[1]
	r.res.Shards[hs].Hedges++
	done2, err2 := r.exec(hs, slot, false)
	switch {
	case r.err != nil:
	case err2 == nil && done2 < p.done1:
		// The hedge won: the wait for the hedge to fire is part of the
		// critical path, blamed queue/"hedge".
		r.win(slot, done2, r.now, r.legSegs, telemetry.StageQueue, telemetry.ResHedge)
	default:
		r.win(slot, p.done1, p.dispatch, p.segs, 0, 0)
	}
}

// failover tries a failed read's next replica at the current time (the
// prior leg's failure). The succeeding leg's blame charges [dispatch, leg
// start) — the failed prior attempts — to retry/"failover"; a read that
// fails on every replica is lost.
func (r *replay) failover(slot int32) {
	p := &r.slots[slot]
	if p.next >= p.nrep {
		r.lose(slot, r.now)
		return
	}
	rs := p.reps[p.next]
	r.res.Shards[rs].Failovers++
	done, err := r.exec(rs, slot, false)
	switch {
	case r.err != nil:
	case err == nil:
		r.win(slot, done, r.now, r.legSegs, telemetry.StageRetry, telemetry.ResFailover)
	default:
		p.next++
		r.push(done, event{kind: evFailover, slot: slot})
	}
}

// dispatchWrite writes every copy at the current time. The primary copy
// is charged the queue wait; replica copies write concurrently at
// dispatch. Durability is write-all: the request completes with its
// slowest successful copy, and fails only when the primary copy fails.
func (r *replay) dispatchWrite(si, slot int32) {
	done1, err1 := r.exec(si, slot, true)
	if r.err != nil {
		return
	}
	r.push(done1, event{kind: evRelease, shard: si})
	p := &r.slots[slot]
	p.segs, r.legSegs = r.legSegs, p.segs
	worst := done1
	for k := int8(1); k < p.nrep; k++ {
		rs := p.reps[k]
		r.res.Shards[rs].ReplicaWrites++
		done, err := r.exec(rs, slot, false)
		if r.err != nil {
			return
		}
		if err == nil && done > worst {
			worst = done
			p.segs, r.legSegs = r.legSegs, p.segs
		}
	}
	if err1 != nil {
		r.lose(slot, done1)
		return
	}
	r.win(slot, worst, r.now, p.segs, 0, 0)
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
