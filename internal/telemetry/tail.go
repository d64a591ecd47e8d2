package telemetry

import (
	"math/bits"
	"sort"

	"pipette/internal/sim"
)

// TailExemplar is one captured slow request: its full contiguous span
// list (the blame vector is a fold of Segs by stage and resource). Seq is
// the request's completion-order index within the cell, which makes the
// (latency, start, seq) ranking a deterministic total order.
type TailExemplar struct {
	Seq        uint64
	Start, End sim.Time
	Segs       []StageSeg
}

// Latency is the exemplar's end-to-end virtual time.
func (e *TailExemplar) Latency() sim.Time { return e.End - e.Start }

// BlameSeg is one row of an aggregate blame composition: total virtual
// time a set of requests spent in (Stage, Res). Res is the resource's name.
type BlameSeg struct {
	Stage Stage
	Res   string
	Total sim.Time
}

// TailSnapshot is the deterministic summary a TailRecorder exports: the
// top-K slowest requests with full spans, plus the blame composition
// aggregated over the whole kept set (the slowest ~1%), which is what the
// p99-blame table renders.
type TailSnapshot struct {
	// TopK holds the slowest requests, slowest first.
	TopK []TailExemplar
	// Blame aggregates every kept request's segments by (stage, resource),
	// ordered by stage then resource.
	Blame []BlameSeg
	// Kept is the number of requests in the kept set (Blame's population).
	Kept int
	// Observed is the number of requests the recorder saw.
	Observed uint64
}

// TailRecorder keeps the `keep` slowest requests seen so far (a min-heap
// keyed on the ranking below) and surfaces the top `topK` of them as
// exemplars. Ranking is a strict total order — higher latency outranks;
// ties break to the earlier start, then the lower completion seq — so the
// kept set and the snapshot are byte-identical regardless of worker
// count, as long as each recorder observes one single-threaded cell.
//
// Observe copies a request's segments only when it enters the kept set,
// so the steady-state cost for a fast request is one comparison. Kept
// segments live in slots carved from pointer-free chunks: a slot holds
// tailSlotMin segments, or the next power-of-two multiple of that when a
// request has more. An admitted request takes over the evicted entry's
// slot when it fits; otherwise the evicted slot goes on its size's free
// list and the request takes a free slot of its own size, or a new one.
// An admission therefore copies the segments and sifts the heap, and
// allocates nothing once the kept set has filled.
type TailRecorder struct {
	topK     int
	keep     int
	seq      uint64
	observed uint64
	ents     []tailEntry // min-heap: ents[0] is the weakest kept entry; cap keep

	chunkSegs int          // segments per chunk
	chunks    [][]StageSeg // slot storage
	used      int          // segments carved from the last chunk
	free      [][]tailSlot // free slots by size class
}

// Slot sizes are tailSlotMin << class; a chunk holds tailChunkSegs
// segments (fewer when keep is small).
const (
	tailSlotMin   = 8
	tailChunkSegs = 4096
)

// tailSlot locates a slot: its chunk, first segment and size class.
type tailSlot struct {
	chunk, off int32
	class      int32
}

type tailEntry struct {
	seq        uint64
	start, end sim.Time
	slot       tailSlot
	n          int32 // segments held
}

// slotClass is the size class of a slot holding n segments.
func slotClass(n int) int32 {
	return int32(bits.Len(uint(max(n, 1)-1) / tailSlotMin))
}

// outranks reports whether a is a strictly stronger exemplar than b.
func (a *tailEntry) outranks(b *tailEntry) bool {
	la, lb := a.end-a.start, b.end-b.start
	if la != lb {
		return la > lb
	}
	if a.start != b.start {
		return a.start < b.start
	}
	return a.seq < b.seq
}

// NewTailRecorder returns a recorder exposing the topK slowest requests
// and aggregating blame over the keep slowest (keep is clamped up to
// topK). Typical use: topK a handful for waterfalls, keep ~1% of the
// cell's request count for the p99 blame composition.
func NewTailRecorder(topK, keep int) *TailRecorder {
	if topK < 1 {
		topK = 1
	}
	if keep < topK {
		keep = topK
	}
	return &TailRecorder{topK: topK, keep: keep, ents: make([]tailEntry, 0, keep),
		chunkSegs: min(keep*tailSlotMin, tailChunkSegs)}
}

// Observe offers one finished request to the recorder. segs is valid only
// during the call; it is copied if the request enters the kept set.
func (t *TailRecorder) Observe(segs []StageSeg, start, end sim.Time) {
	if t == nil {
		return
	}
	t.observed++
	e := tailEntry{seq: t.seq, start: start, end: end, n: int32(len(segs))}
	t.seq++
	if len(t.ents) < t.keep {
		e.slot = t.takeSlot(len(segs))
		copy(t.segs(&e), segs)
		t.ents = append(t.ents, e)
		t.siftUp(len(t.ents) - 1)
		return
	}
	if !e.outranks(&t.ents[0]) {
		return
	}
	// Evict the weakest kept entry, taking over its slot if it fits.
	e.slot = t.ents[0].slot
	if slotClass(len(segs)) > e.slot.class {
		t.free[e.slot.class] = append(t.free[e.slot.class], e.slot)
		e.slot = t.takeSlot(len(segs))
	}
	copy(t.segs(&e), segs)
	t.ents[0] = e
	t.siftDown(0)
}

// segs returns the segments e holds.
func (t *TailRecorder) segs(e *tailEntry) []StageSeg {
	return t.chunks[e.slot.chunk][e.slot.off : e.slot.off+e.n]
}

// takeSlot returns a slot for n segments: a free one of n's size class,
// else one carved from the last chunk, else from a new chunk.
func (t *TailRecorder) takeSlot(n int) tailSlot {
	class := slotClass(n)
	if int(class) < len(t.free) {
		if f := t.free[class]; len(f) > 0 {
			t.free[class] = f[:len(f)-1]
			return f[len(f)-1]
		}
	} else {
		t.free = append(t.free, make([][]tailSlot, int(class)+1-len(t.free))...)
	}
	size := tailSlotMin << class
	if len(t.chunks) == 0 || t.used+size > len(t.chunks[len(t.chunks)-1]) {
		t.chunks = append(t.chunks, make([]StageSeg, max(size, t.chunkSegs)))
		t.used = 0
	}
	s := tailSlot{chunk: int32(len(t.chunks) - 1), off: int32(t.used), class: class}
	t.used += size
	return s
}

// weaker is the heap order: true when ents[i] should sit below ents[j]
// (closer to eviction).
func (t *TailRecorder) weaker(i, j int) bool {
	return t.ents[j].outranks(&t.ents[i])
}

func (t *TailRecorder) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.weaker(i, p) {
			break
		}
		t.ents[i], t.ents[p] = t.ents[p], t.ents[i]
		i = p
	}
}

func (t *TailRecorder) siftDown(i int) {
	n := len(t.ents)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.weaker(l, m) {
			m = l
		}
		if r < n && t.weaker(r, m) {
			m = r
		}
		if m == i {
			return
		}
		t.ents[i], t.ents[m] = t.ents[m], t.ents[i]
		i = m
	}
}

// Observed reports how many requests the recorder has seen.
func (t *TailRecorder) Observed() uint64 {
	if t == nil {
		return 0
	}
	return t.observed
}

// Snapshot ranks the kept set and returns the deterministic summary. The
// recorder keeps running; exemplar segments are deep-copied.
func (t *TailRecorder) Snapshot() *TailSnapshot {
	if t == nil || len(t.ents) == 0 {
		return nil
	}
	order := make([]*tailEntry, len(t.ents))
	for i := range t.ents {
		order[i] = &t.ents[i]
	}
	sort.Slice(order, func(i, j int) bool { return order[i].outranks(order[j]) })

	snap := &TailSnapshot{Kept: len(order), Observed: t.observed}
	k := t.topK
	if k > len(order) {
		k = len(order)
	}
	snap.TopK = make([]TailExemplar, k)
	for i := 0; i < k; i++ {
		e := order[i]
		snap.TopK[i] = TailExemplar{
			Seq:   e.seq,
			Start: e.start,
			End:   e.end,
			Segs:  append([]StageSeg(nil), t.segs(e)...),
		}
	}
	blame := blameFold{}
	for i := range t.ents {
		blame.add(t.segs(&t.ents[i]))
	}
	snap.Blame = blame.rows()
	return snap
}

// blameFold sums segments by (stage, resource).
type blameFold map[blameKey]sim.Time

type blameKey struct {
	stage Stage
	res   Res
}

func (f blameFold) add(segs []StageSeg) {
	for _, s := range segs {
		f[blameKey{s.Stage, s.Res}] += s.End - s.Start
	}
}

// rows returns the totals ordered by stage, then resource name: resource
// IDs depend on the order stacks were built in, names do not.
func (f blameFold) rows() []BlameSeg {
	out := make([]BlameSeg, 0, len(f))
	for k, v := range f {
		out = append(out, BlameSeg{Stage: k.stage, Res: k.res.String(), Total: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Res < out[j].Res
	})
	return out
}
