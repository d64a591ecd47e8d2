package telemetry

import (
	"fmt"
	"math/bits"

	"pipette/internal/metrics"
	"pipette/internal/sim"
)

// Stage names one segment of a request's end-to-end virtual time. Stages
// are ordered roughly in the order a request visits them on its way down
// the stack; the waterfall table renders them in this order.
type Stage uint8

const (
	// StageSyscall is the VFS entry overhead charged to every request.
	StageSyscall Stage = iota
	// StageCache is time serving a request from a host-side cache (page
	// cache or the fine-grained read cache) without touching the device.
	StageCache
	// StageQueue is queueing time: admission delay a request spent waiting
	// to be dispatched (open-loop runs, armed via PreQueue) plus
	// block-layer software time — request setup, merge, and per-command
	// submission overhead.
	StageQueue
	// StageConstruct is fine-path host work: the constructor/requester
	// building the fine command and its HMB info-ring record.
	StageConstruct
	// StageRing is ring-protocol time: SQ doorbell, command fetch, and CQ
	// completion on the NVMe rings.
	StageRing
	// StageFirmware is controller firmware time including the FTL map
	// lookup before media access starts.
	StageFirmware
	// StageNAND is media time: die sense (tR) plus channel transfer.
	StageNAND
	// StageRetry is fault-recovery time: the ECC retry ladder's re-reads
	// and fine->block fallback attempts that had to be thrown away.
	StageRetry
	// StageDMA is PCIe payload movement: DMA bursts, MMIO transfers, and
	// the fine path's extraction overhead.
	StageDMA
	// StageProgram is NAND program/erase time on the write path,
	// including garbage collection the write triggered.
	StageProgram
	// StageWriteback is time an fsync/syncfs request spent flushing dirty
	// pages to the device.
	StageWriteback
	// StageCopyout is the host copy into the caller's buffer.
	StageCopyout
	// StageOther is residual host time no layer claimed; a healthy stack
	// keeps it at zero, and tests assert that.
	StageOther

	// NumStages is the number of defined stages.
	NumStages
)

// Finish keeps the stages a request touched in a uint64 bit set.
const _ uint64 = 1 << (NumStages - 1)

var stageNames = [NumStages]string{
	"syscall", "cache", "queue", "construct", "ring", "firmware",
	"nand", "retry", "dma", "program", "writeback", "copyout", "other",
}

// String returns the stage's short name as used in tables and metric labels.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", int(s))
}

// StageSeg is one attributed interval of a request: [Start, End) belongs
// to Stage. A finished request's segments are contiguous and partition
// [request start, request end] exactly — that is the conservation
// invariant.
//
// Res optionally names the concrete resource the interval was spent on —
// "nand.ch2.w5", "nvme.sq1", "pcie.dma" — refining the stage into a
// critical-path blame vector. Layers pass interned (package-constant or
// precomputed) strings so marking stays allocation-free; the empty string
// means "the stage itself" and renders under the stage name.
type StageSeg struct {
	Stage      Stage
	Res        string
	Start, End sim.Time
}

// StageAccount splits each request's end-to-end virtual time into named
// stages. It is a cursor over the request's timeline: a layer that knows
// the request has progressed to time t calls Mark(stage, t), which
// attributes the not-yet-claimed interval [cursor, t) to that stage and
// advances the cursor. Marks at or before the cursor attribute nothing —
// when device-side work overlaps (commands racing on channels), whichever
// completion is observed first claims the wall time, and later overlapped
// completions add only their tail beyond the cursor. Segments are
// therefore contiguous by construction and always sum exactly to the
// end-to-end latency, including fault paths.
//
// All methods are nil-receiver safe, so layers hold a possibly-nil
// *StageAccount and call it unconditionally; the disabled cost is one
// nil check per mark site. Like the Recorder, a StageAccount belongs to
// one single-threaded simulated system.
type StageAccount struct {
	active     bool
	suspended  int
	start      sim.Time
	cursor     sim.Time
	segs       []StageSeg
	preArmed   bool
	preArrival sim.Time

	requests uint64
	elapsed  sim.Time // sum of finished requests' end-to-end latencies
	totals   [NumStages]sim.Time
	hists    [NumStages]metrics.Histogram
	gaps     uint64 // contiguity violations observed at Finish (must stay 0)

	// Optional Registry mirror. Totals and the request count are mirrored
	// into atomic live values at Finish so a concurrent scraper never
	// reads the account's plain fields.
	live      [NumStages]*LiveHistogram
	liveTotal [NumStages]*Counter
	liveReqs  *Counter

	// onFinish, when set, observes every finished request's segments;
	// tests use it to assert per-request conservation.
	onFinish func(segs []StageSeg, start, end sim.Time)

	// tail, when set, receives every finished request's segments for
	// slowest-request exemplar capture. Separate from onFinish so the
	// harness's tail recorder and a test's conservation observer coexist.
	tail *TailRecorder
}

// NewStageAccount returns an empty account.
func NewStageAccount() *StageAccount { return &StageAccount{} }

// SetOnFinish installs a per-request observer invoked by Finish with the
// request's segments (valid only during the call) and its [start, end].
func (a *StageAccount) SetOnFinish(fn func(segs []StageSeg, start, end sim.Time)) {
	if a != nil {
		a.onFinish = fn
	}
}

// SetTail installs a tail recorder that observes every finished request
// (nil detaches). The harness attaches it after warmup so exemplars cover
// only the measured phase.
func (a *StageAccount) SetTail(t *TailRecorder) {
	if a != nil {
		a.tail = t
	}
}

// LastSegs exposes the most recently finished request's segments. The
// slice is valid only until the next Begin; callers that keep it (the
// cluster's per-leg blame capture) must copy. Returns nil while a request
// is open.
func (a *StageAccount) LastSegs() []StageSeg {
	if a == nil || a.active {
		return nil
	}
	return a.segs
}

// PreQueue arms the next Begin with the request's true arrival time: if
// the request then enters the stack at a later dispatch time, the span
// [arrival, dispatch) is attributed to StageQueue and the request's
// end-to-end latency is measured from arrival. This is how the open-loop
// harness makes admission-queueing delay a first-class stage while the
// conservation invariant keeps holding — the queue segment is part of the
// request's contiguous timeline, not a side channel. The arming applies
// to exactly one Begin; closed-loop callers that never arm see no change.
func (a *StageAccount) PreQueue(arrival sim.Time) {
	if a == nil {
		return
	}
	a.preArmed = true
	a.preArrival = arrival
}

// Begin opens a request at virtual time now. A request already open is
// discarded — the stack opens exactly one account scope per host request.
func (a *StageAccount) Begin(now sim.Time) {
	if a == nil {
		return
	}
	a.active = true
	a.suspended = 0
	a.start = now
	a.cursor = now
	a.segs = a.segs[:0]
	if a.preArmed {
		a.preArmed = false
		if a.preArrival < now {
			a.start = a.preArrival
			a.segs = append(a.segs, StageSeg{Stage: StageQueue, Res: ResAdmission, Start: a.preArrival, End: now})
		}
	}
}

// Suspend pauses attribution until the matching Resume: marks and
// reattributions are ignored. The VFS wraps asynchronous write-back drains
// in a suspend scope — the drained commands cost the foreground request no
// virtual time, so their device-side completion marks must not drag the
// cursor past the request's end. Suspends nest.
func (a *StageAccount) Suspend() {
	if a != nil {
		a.suspended++
	}
}

// Resume reverses one Suspend.
func (a *StageAccount) Resume() {
	if a != nil && a.suspended > 0 {
		a.suspended--
	}
}

// Mark attributes the interval from the cursor to t to stage and advances
// the cursor. Marks at or before the cursor (overlapped work already
// claimed) attribute nothing.
func (a *StageAccount) Mark(stage Stage, t sim.Time) {
	a.MarkRes(stage, t, "")
}

// MarkRes is Mark with a blame resource: the claimed interval is tagged
// with res ("nand.ch2.w5", "nvme.sq1", "pcie.dma", ...) so the request's
// segments double as a critical-path blame vector. res must be an
// interned string; adjacent segments merge only when both stage and
// resource match, so a request bouncing between dies keeps one segment
// per die visit.
func (a *StageAccount) MarkRes(stage Stage, t sim.Time, res string) {
	if a == nil || !a.active || a.suspended > 0 || t <= a.cursor {
		return
	}
	n := len(a.segs)
	if n > 0 && a.segs[n-1].Stage == stage && a.segs[n-1].Res == res && a.segs[n-1].End == a.cursor {
		a.segs[n-1].End = t
	} else {
		a.segs = append(a.segs, StageSeg{Stage: stage, Res: res, Start: a.cursor, End: t})
	}
	a.cursor = t
}

// Reattribute reassigns every already-attributed interval at or after
// `from` to stage. The fine->block fallback uses it: a failed fine
// attempt's construct/firmware/NAND/DMA time is wasted work, and the
// satellite requirement is that it lands in the retry stage.
func (a *StageAccount) Reattribute(from sim.Time, stage Stage) {
	if a == nil || !a.active || a.suspended > 0 {
		return
	}
	for i := len(a.segs) - 1; i >= 0; i-- {
		seg := &a.segs[i]
		if seg.End <= from {
			break
		}
		if seg.Start >= from {
			seg.Stage = stage
			continue
		}
		// Straddling segment: keep [Start, from) as-is, move [from, End).
		// The moved tail keeps its resource — retried work is still blamed
		// on the die/link that performed it.
		tail := StageSeg{Stage: stage, Res: seg.Res, Start: from, End: seg.End}
		seg.End = from
		rest := append([]StageSeg{tail}, a.segs[i+1:]...)
		a.segs = append(a.segs[:i+1], rest...)
		break
	}
}

// Finish closes the request at virtual time end. Any unclaimed tail
// [cursor, end) is attributed to StageOther, then per-stage totals and
// histograms absorb the request. It returns the end-to-end latency.
func (a *StageAccount) Finish(end sim.Time) sim.Time {
	if a == nil || !a.active {
		return 0
	}
	a.Mark(StageOther, end)
	a.active = false

	var perStage [NumStages]sim.Time
	var held uint64 // bit s: stage s holds time (no segment is empty)
	at := a.start
	for _, seg := range a.segs {
		if seg.Start != at {
			a.gaps++
		}
		perStage[seg.Stage] += seg.End - seg.Start
		held |= 1 << seg.Stage
		at = seg.End
	}
	if at != end {
		a.gaps++
	}
	a.requests++
	a.elapsed += end - a.start
	for ; held != 0; held &= held - 1 {
		s := Stage(bits.TrailingZeros64(held))
		a.totals[s] += perStage[s]
		a.hists[s].Observe(perStage[s])
		if a.live[s] != nil {
			a.live[s].Observe(perStage[s].Micros())
		}
		if a.liveTotal[s] != nil {
			a.liveTotal[s].Add(uint64(perStage[s]))
		}
	}
	if a.liveReqs != nil {
		a.liveReqs.Inc()
	}
	if a.onFinish != nil {
		a.onFinish(a.segs, a.start, end)
	}
	a.tail.Observe(a.segs, a.start, end)
	return end - a.start
}

// Cursor reports the open request's attribution frontier: the end of the
// last claimed interval. Layers that may need to reattribute work they
// are about to cause (ECC retries, fallbacks) capture it first so the
// Reattribute covers exactly that work.
func (a *StageAccount) Cursor() sim.Time {
	if a == nil {
		return 0
	}
	return a.cursor
}

// Requests reports finished request scopes.
func (a *StageAccount) Requests() uint64 {
	if a == nil {
		return 0
	}
	return a.requests
}

// Elapsed reports the sum of finished requests' end-to-end latencies.
func (a *StageAccount) Elapsed() sim.Time {
	if a == nil {
		return 0
	}
	return a.elapsed
}

// Total reports cumulative time attributed to one stage.
func (a *StageAccount) Total(s Stage) sim.Time {
	if a == nil {
		return 0
	}
	return a.totals[s]
}

// Sum reports the total attributed time across all stages. Conservation
// means Sum() == Elapsed() at all times between requests.
func (a *StageAccount) Sum() sim.Time {
	if a == nil {
		return 0
	}
	var t sim.Time
	for _, v := range a.totals {
		t += v
	}
	return t
}

// Gaps reports contiguity violations seen at Finish; it must stay zero.
func (a *StageAccount) Gaps() uint64 {
	if a == nil {
		return 0
	}
	return a.gaps
}

// StageHistogram returns the per-request time distribution of one stage
// (only requests where the stage was non-zero are observed).
func (a *StageAccount) StageHistogram(s Stage) *metrics.Histogram {
	if a == nil {
		return nil
	}
	return &a.hists[s]
}

// StageSnapshot is a copyable summary of an account: the raw material of
// waterfall tables and the run-report export.
type StageSnapshot struct {
	Requests uint64
	Elapsed  sim.Time
	Totals   [NumStages]sim.Time
	Hists    [NumStages]metrics.Histogram
}

// Snapshot copies the account's aggregate state.
func (a *StageAccount) Snapshot() StageSnapshot {
	if a == nil {
		return StageSnapshot{}
	}
	return StageSnapshot{
		Requests: a.requests,
		Elapsed:  a.elapsed,
		Totals:   a.totals,
		Hists:    a.hists,
	}
}

// Sum reports the total attributed time across all stages.
func (s *StageSnapshot) Sum() sim.Time {
	var t sim.Time
	for _, v := range s.Totals {
		t += v
	}
	return t
}

// Merge folds other into s (used when aggregating across runs).
func (s *StageSnapshot) Merge(other *StageSnapshot) {
	s.Requests += other.Requests
	s.Elapsed += other.Elapsed
	for i := range s.Totals {
		s.Totals[i] += other.Totals[i]
		s.Hists[i].Merge(&other.Hists[i])
	}
}

// Waterfall renders the per-stage breakdown: where the run's request time
// went, stage by stage in pipeline order. share% is of total end-to-end
// time, so the column sums to 100 — the table is the conservation
// invariant made visible.
func (s *StageSnapshot) Waterfall() *metrics.Table {
	t := &metrics.Table{Header: []string{
		"stage", "total(ms)", "share%", "reqs", "mean(us)", "p99(us)", "max(us)"}}
	for st := Stage(0); st < NumStages; st++ {
		if s.Totals[st] == 0 {
			continue
		}
		h := &s.Hists[st]
		share := 0.0
		if s.Elapsed > 0 {
			share = 100 * float64(s.Totals[st]) / float64(s.Elapsed)
		}
		t.AddRow(st.String(),
			fmt.Sprintf("%.3f", s.Totals[st].Millis()),
			fmt.Sprintf("%.1f", share),
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.2f", h.Mean().Micros()),
			fmt.Sprintf("%.2f", h.Quantile(0.99).Micros()),
			fmt.Sprintf("%.2f", h.Max().Micros()))
	}
	t.AddRow("total",
		fmt.Sprintf("%.3f", s.Sum().Millis()),
		"100.0",
		fmt.Sprintf("%d", s.Requests),
		"", "", "")
	return t
}

// Waterfall renders the live account's breakdown table.
func (a *StageAccount) Waterfall() *metrics.Table {
	snap := a.Snapshot()
	return snap.Waterfall()
}

// stageBoundsUs are the LiveHistogram bucket bounds (microseconds) used
// for the Registry mirror: wide log-ish coverage from sub-µs host costs
// to multi-ms device stalls.
var stageBoundsUs = []float64{
	0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// BindRegistry mirrors the account into reg: a per-stage histogram family
// (microseconds) observed at each Finish, cumulative per-stage time, and
// the request count — so the conservation sum is visible on /metrics. The
// mirrored series are atomic live values; a concurrent scraper never
// touches the account's own state. Extra labels are appended to every
// series, letting multi-device systems (one account per cluster shard)
// share the families without colliding.
func (a *StageAccount) BindRegistry(reg *Registry, extra ...Label) {
	if a == nil || reg == nil {
		return
	}
	labels := func(l Label) []Label { return append([]Label{l}, extra...) }
	for s := Stage(0); s < NumStages; s++ {
		a.live[s] = reg.Histogram("pipette_stage_us",
			"Per-request time attributed to each request stage, in microseconds.",
			stageBoundsUs, labels(L("stage", s.String()))...)
		a.liveTotal[s] = reg.Counter("pipette_stage_ns_total",
			"Cumulative virtual time attributed to each request stage, in nanoseconds.",
			labels(L("stage", s.String()))...)
	}
	a.liveReqs = reg.Counter("pipette_stage_requests_total",
		"Requests finished by the stage account.", extra...)
}
