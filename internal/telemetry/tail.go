package telemetry

import (
	"encoding/binary"
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
// Once the kept set is full, the recorder holds a copy of its weakest
// entry's key, so a request that does not outrank it costs one
// comparison against the recorder itself and touches neither the heap
// nor the segment store. An admitted request's segments are packed
// (appendSegs) into a byte slot carved from pointer-free chunks: a slot
// holds tailSlotMin bytes, or the next power-of-two multiple of that when
// the packing is longer. An admission takes over the evicted entry's slot
// when it fits; otherwise the evicted slot goes on its size's free list
// and the request takes a free slot of its own size, or a new one. An
// admission therefore packs the segments and sifts the heap, and
// allocates nothing once the kept set has filled. Segments are unpacked
// only by Snapshot.
type TailRecorder struct {
	topK     int
	keep     int
	seq      uint64
	observed uint64
	weakest  tailEntry   // copy of ents[0] once the kept set is full
	ents     []tailEntry // min-heap: ents[0] is the weakest kept entry; cap keep

	chunkBytes int          // bytes per chunk
	chunks     [][]byte     // slot storage
	used       int          // bytes carved from the last chunk
	free       [][]tailSlot // free slots by size class
	packed     []byte       // the admitted request's packing, before it has a slot
}

// Slot sizes are tailSlotMin << class bytes: the 8 segments of a device
// read pack into about 50 bytes, so it takes the smallest slot, and so does
// a cache hit admitted while the kept set fills, whose slot a later device
// read then takes over. A chunk holds tailChunkBytes bytes (fewer when keep
// is small).
const (
	tailSlotMin    = 64
	tailChunkBytes = 64 << 10
)

// tailSlot locates a slot: its chunk, first byte and size class.
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

// slotClass is the size class of a slot holding n bytes.
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
		chunkBytes: min(keep*tailSlotMin, tailChunkBytes)}
}

// Observe offers one finished request to the recorder. segs is valid only
// during the call; it is packed if the request enters the kept set.
func (t *TailRecorder) Observe(segs []StageSeg, start, end sim.Time) {
	if t == nil {
		return
	}
	t.observed++
	e := tailEntry{seq: t.seq, start: start, end: end}
	t.seq++
	if len(t.ents) == t.keep && !e.outranks(&t.weakest) {
		return
	}
	t.admit(e, segs)
}

// admit enters e, holding segs, into the kept set, evicting the weakest
// entry when the set is full.
func (t *TailRecorder) admit(e tailEntry, segs []StageSeg) {
	t.packed = appendSegs(t.packed[:0], segs, e.start)
	e.n = int32(len(segs))
	if len(t.ents) < t.keep {
		e.slot = t.takeSlot(len(t.packed))
		t.ents = append(t.ents, e)
		t.siftUp(len(t.ents) - 1)
	} else {
		// Evict the weakest kept entry, taking over its slot if it fits.
		e.slot = t.ents[0].slot
		if slotClass(len(t.packed)) > e.slot.class {
			t.free[e.slot.class] = append(t.free[e.slot.class], e.slot)
			e.slot = t.takeSlot(len(t.packed))
		}
		t.ents[0] = e
		t.siftDown(0)
	}
	copy(t.chunks[e.slot.chunk][e.slot.off:], t.packed)
	if len(t.ents) == t.keep {
		t.weakest = t.ents[0]
	}
}

// appendSegs appends the packing of the segments of a request that
// started at start. Each segment is its stage (1 byte), its resource
// (2 bytes, little-endian) and two zigzag varints: the gap from the
// previous segment's end (the request's start, for the first) and the
// segment's duration. Contiguous segments have gap 0, a single byte. The
// differences wrap in two's complement, so any int64 times round-trip.
func appendSegs(b []byte, segs []StageSeg, start sim.Time) []byte {
	prev := start
	for _, s := range segs {
		b = append(b, byte(s.Stage), byte(s.Res), byte(s.Res>>8))
		b = binary.AppendUvarint(b, zigzag(s.Start-prev))
		b = binary.AppendUvarint(b, zigzag(s.End-s.Start))
		prev = s.End
	}
	return b
}

// zigzag maps small magnitudes of either sign to small varints.
func zigzag(v sim.Time) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) sim.Time { return sim.Time(u>>1) ^ -sim.Time(u&1) }

// unpack appends the segments e holds, as appendSegs packed them, to dst.
func (t *TailRecorder) unpack(dst []StageSeg, e *tailEntry) []StageSeg {
	b := t.chunks[e.slot.chunk][e.slot.off:]
	prev := e.start
	for n := e.n; n > 0; n-- {
		s := StageSeg{Stage: Stage(b[0]), Res: Res(b[1]) | Res(b[2])<<8}
		gap, k := binary.Uvarint(b[3:])
		b = b[3+k:]
		dur, k := binary.Uvarint(b)
		b = b[k:]
		s.Start = prev + unzigzag(gap)
		s.End = s.Start + unzigzag(dur)
		prev = s.End
		dst = append(dst, s)
	}
	return dst
}

// takeSlot returns a slot for n bytes: a free one of n's size class,
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
		t.chunks = append(t.chunks, make([]byte, max(size, t.chunkBytes)))
		t.used = 0
	}
	s := tailSlot{chunk: int32(len(t.chunks) - 1), off: int32(t.used), class: class}
	t.used += size
	return s
}

// siftUp moves ents[i] up to its place: a min-heap's parent is weaker
// than its children.
func (t *TailRecorder) siftUp(i int) {
	ents := t.ents
	e := ents[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ents[p].outranks(&e) {
			break
		}
		ents[i] = ents[p]
		i = p
	}
	ents[i] = e
}

// siftDown moves ents[i] down to its place.
func (t *TailRecorder) siftDown(i int) {
	ents := t.ents
	e := ents[i]
	for {
		c := 2*i + 1
		if c >= len(ents) {
			break
		}
		if c+1 < len(ents) && ents[c].outranks(&ents[c+1]) {
			c++
		}
		if !e.outranks(&ents[c]) {
			break
		}
		ents[i] = ents[c]
		i = c
	}
	ents[i] = e
}

// Observed reports how many requests the recorder has seen.
func (t *TailRecorder) Observed() uint64 {
	if t == nil {
		return 0
	}
	return t.observed
}

// Snapshot ranks the kept set and returns the deterministic summary. The
// recorder keeps running; exemplar segments are unpacked into fresh slices.
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
		snap.TopK[i] = TailExemplar{Seq: e.seq, Start: e.start, End: e.end}
		if e.n > 0 {
			snap.TopK[i].Segs = t.unpack(make([]StageSeg, 0, e.n), e)
		}
	}
	blame := blameFold{}
	var segs []StageSeg
	for i := range t.ents {
		segs = t.unpack(segs[:0], &t.ents[i])
		blame.add(segs)
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
