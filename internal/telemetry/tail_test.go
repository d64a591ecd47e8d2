package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"pipette/internal/sim"
)

// seg is a test shorthand for a contiguous span; it interns res.
func seg(st Stage, res string, a, b sim.Time) StageSeg {
	return StageSeg{Stage: st, Res: Intern(res), Start: a, End: b}
}

func TestTailRecorderRankingAndEviction(t *testing.T) {
	r := NewTailRecorder(2, 3)
	// Latencies: 10, 50, 30, 40, 20 — kept set of 3 should end as
	// {50, 40, 30}; top-2 = [50, 40].
	for i, lat := range []sim.Time{10, 50, 30, 40, 20} {
		start := sim.Time(i * 1000)
		r.Observe([]StageSeg{seg(StageNAND, "", start, start+lat)}, start, start+lat)
	}
	snap := r.Snapshot()
	if snap == nil {
		t.Fatal("snapshot is nil")
	}
	if snap.Observed != 5 || snap.Kept != 3 {
		t.Fatalf("observed %d kept %d, want 5 and 3", snap.Observed, snap.Kept)
	}
	if len(snap.TopK) != 2 {
		t.Fatalf("topK has %d entries, want 2", len(snap.TopK))
	}
	if snap.TopK[0].Latency() != 50 || snap.TopK[1].Latency() != 40 {
		t.Errorf("topK latencies = %d, %d, want 50, 40", snap.TopK[0].Latency(), snap.TopK[1].Latency())
	}
	// Blame covers the kept set only: 50 + 40 + 30.
	var total sim.Time
	for _, b := range snap.Blame {
		total += b.Total
	}
	if total != 120 {
		t.Errorf("blame total = %d, want 120 (kept set only)", total)
	}
}

func TestTailRecorderTieBreak(t *testing.T) {
	r := NewTailRecorder(3, 3)
	// Three requests with identical latency: ranking must break to the
	// earlier start, then the lower completion seq.
	r.Observe(nil, 200, 300) // seq 0, start 200
	r.Observe(nil, 100, 200) // seq 1, start 100
	r.Observe(nil, 100, 200) // seq 2, start 100 (same start, later seq)
	snap := r.Snapshot()
	want := []struct {
		seq   uint64
		start sim.Time
	}{{1, 100}, {2, 100}, {0, 200}}
	for i, w := range want {
		if snap.TopK[i].Seq != w.seq || snap.TopK[i].Start != w.start {
			t.Errorf("topK[%d] = seq %d start %d, want seq %d start %d",
				i, snap.TopK[i].Seq, snap.TopK[i].Start, w.seq, w.start)
		}
	}
}

func TestTailRecorderCopiesSegments(t *testing.T) {
	r := NewTailRecorder(1, 1)
	scratch := []StageSeg{seg(StageNAND, "nand.ch0.w0", 0, 100)}
	r.Observe(scratch, 0, 100)
	scratch[0] = seg(StageDMA, "pcie.dma", 5, 7) // caller reuses its buffer
	snap := r.Snapshot()
	if got := snap.TopK[0].Segs[0]; got.Stage != StageNAND || got.Res.String() != "nand.ch0.w0" {
		t.Fatalf("recorder aliased the caller's segment buffer: %+v", got)
	}
}

func TestTailRecorderNilSafe(t *testing.T) {
	var r *TailRecorder
	r.Observe(nil, 0, 10)
	if r.Snapshot() != nil || r.Observed() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if NewTailRecorder(2, 2).Snapshot() != nil {
		t.Fatal("empty recorder must snapshot to nil")
	}
}

// TestBlameVectorFolds: a recorder holding one request blames its
// segments as (stage, resource) totals.
func TestBlameVectorFolds(t *testing.T) {
	r := NewTailRecorder(1, 4)
	r.Observe([]StageSeg{
		seg(StageNAND, "nand.ch0.w0", 0, 10),
		seg(StageDMA, "pcie.dma", 10, 14),
		seg(StageNAND, "nand.ch0.w0", 14, 20),
		seg(StageNAND, "nand.ch1.w0", 20, 25),
	}, 0, 25)
	got := r.Snapshot().Blame
	want := []BlameSeg{
		{Stage: StageNAND, Res: "nand.ch0.w0", Total: 16},
		{Stage: StageNAND, Res: "nand.ch1.w0", Total: 5},
		{Stage: StageDMA, Res: "pcie.dma", Total: 4},
	}
	// Order is stage then resource; StageNAND sorts before StageDMA iff
	// the enum says so — compare as sets keyed by (stage, res).
	if len(got) != len(want) {
		t.Fatalf("blame has %d rows, want %d: %+v", len(got), len(want), got)
	}
	totals := map[[2]string]sim.Time{}
	for _, b := range got {
		totals[[2]string{b.Stage.String(), b.Res}] = b.Total
	}
	for _, w := range want {
		if totals[[2]string{w.Stage.String(), w.Res}] != w.Total {
			t.Errorf("blame[%s@%s] = %d, want %d",
				w.Stage, w.Res, totals[[2]string{w.Stage.String(), w.Res}], w.Total)
		}
	}
}

// TestMarkResSegments checks the per-resource refinement of the stage
// account: equal (stage, res) extends the open segment, a differing res
// starts a new one, and conservation holds over the whole request.
func TestMarkResSegments(t *testing.T) {
	a := NewStageAccount()
	var segs []StageSeg
	a.SetOnFinish(func(s []StageSeg, start, end sim.Time) {
		segs = append([]StageSeg(nil), s...)
	})
	a.Begin(0)
	a.MarkRes(StageNAND, 10, Intern("nand.ch0.w0"))
	a.MarkRes(StageNAND, 25, Intern("nand.ch0.w0")) // merges
	a.MarkRes(StageNAND, 40, Intern("nand.ch1.w2")) // new segment, same stage
	a.MarkRes(StageDMA, 44, Intern("pcie.dma"))
	a.Finish(44)

	want := []StageSeg{
		seg(StageNAND, "nand.ch0.w0", 0, 25),
		seg(StageNAND, "nand.ch1.w2", 25, 40),
		seg(StageDMA, "pcie.dma", 40, 44),
	}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments = %+v, want %+v", segs, want)
	}
	snap := a.Snapshot()
	if snap.Sum() != 44 || a.Gaps() != 0 {
		t.Fatalf("sum %d gaps %d, want 44 and 0", snap.Sum(), a.Gaps())
	}
	if got := snap.Totals[StageNAND]; got != 40 {
		t.Fatalf("nand total %d, want 40 (res split must not double-count)", got)
	}
}

func TestLatencyGridObserveAndBuckets(t *testing.T) {
	g := NewLatencyGrid(0)
	g.Observe(0, 500*sim.Nanosecond)           // < 1us -> row 0
	g.Observe(0, 1*sim.Microsecond)            // >= 1us -> row 1
	g.Observe(0, 9999*sim.Microsecond)         // < 10000us -> row 12
	g.Observe(0, 50*sim.Millisecond)           // overflow row
	g.Observe(-5*sim.Microsecond, sim.Time(0)) // before origin clamps to bin 0

	snap := g.Snapshot()
	if snap == nil || snap.Total != 5 {
		t.Fatalf("snapshot total = %v, want 5", snap)
	}
	if len(snap.Counts) != len(snap.BoundsUs)+1 {
		t.Fatalf("rows = %d, want %d", len(snap.Counts), len(snap.BoundsUs)+1)
	}
	for row, want := range map[int]uint64{0: 2, 1: 1, 12: 1, 13: 1} {
		if snap.Counts[row][0] != want {
			t.Errorf("counts[%d][0] = %d, want %d", row, snap.Counts[row][0], want)
		}
	}
}

// TestLatencyGridRescale drives the grid past its bin budget and checks
// the doubling merge: totals survive, per-row mass lands in the merged
// bin, and a completion at the exact post-rescale boundary still fits.
func TestLatencyGridRescale(t *testing.T) {
	g := NewLatencyGrid(0)
	w := defaultLatGridBin
	g.Observe(0, 2*sim.Microsecond)   // bin 0
	g.Observe(3*w, 2*sim.Microsecond) // bin 3
	// Exactly at the current capacity boundary: must trigger one rescale.
	g.Observe(w*latGridMaxBins, 2*sim.Microsecond)

	snap := g.Snapshot()
	if snap.BinNs != int64(2*w) {
		t.Fatalf("bin width = %d, want doubled %d", snap.BinNs, int64(2*w))
	}
	if snap.Total != 3 {
		t.Fatalf("total = %d, want 3", snap.Total)
	}
	row := snap.Counts[2] // 2us lands in the "< 5us" row
	if row[0] != 1 || row[1] != 1 || row[latGridMaxBins/2] != 1 {
		t.Fatalf("post-rescale row = %v", row)
	}

	var sum uint64
	for _, r := range snap.Counts {
		for _, c := range r {
			sum += c
		}
	}
	if sum != snap.Total {
		t.Fatalf("cells sum to %d, total says %d", sum, snap.Total)
	}
}

// TestLatBucketMatchesMicrosLadder pins the integer-nanosecond ladder to
// the float-microsecond comparison it replaced, one nanosecond either side
// of every bound.
func TestLatBucketMatchesMicrosLadder(t *testing.T) {
	micros := func(lat sim.Time) int {
		us := lat.Micros()
		for i, b := range latGridBoundsUs {
			if us < b {
				return i
			}
		}
		return len(latGridBoundsUs)
	}
	lats := []sim.Time{-1, 0, 1}
	for _, b := range latGridBoundsUs {
		ns := sim.Time(b * 1000)
		lats = append(lats, ns-1, ns, ns+1)
	}
	for _, lat := range lats {
		if got, want := latBucket(lat), micros(lat); got != want {
			t.Errorf("latBucket(%d ns) = %d, microsecond ladder gives %d", lat, got, want)
		}
	}
}

func TestLatencyGridNilAndEmpty(t *testing.T) {
	var g *LatencyGrid
	g.Observe(0, 10)
	if g.Snapshot() != nil {
		t.Fatal("nil grid must snapshot to nil")
	}
	if NewLatencyGrid(0).Snapshot() != nil {
		t.Fatal("empty grid must snapshot to nil")
	}
}

// rankedRef is the brute-force tail reference: every observed request,
// with a private copy of its segments.
type rankedRef struct {
	ents []tailEntry
	segs map[uint64][]StageSeg // by seq
}

func (r *rankedRef) observe(segs []StageSeg, start, end sim.Time) {
	seq := uint64(len(r.ents))
	r.ents = append(r.ents, tailEntry{seq: seq, start: start, end: end})
	r.segs[seq] = append([]StageSeg(nil), segs...)
}

// snapshot sorts everything observed and keeps the top keep.
func (r *rankedRef) snapshot(topK, keep int) *TailSnapshot {
	order := append([]tailEntry(nil), r.ents...)
	sort.Slice(order, func(i, j int) bool { return order[i].outranks(&order[j]) })
	kept := order[:min(keep, len(order))]
	snap := &TailSnapshot{Kept: len(kept), Observed: uint64(len(r.ents))}
	blame := blameFold{}
	for i, e := range kept {
		if i < topK {
			snap.TopK = append(snap.TopK, TailExemplar{Seq: e.seq, Start: e.start, End: e.end,
				Segs: append([]StageSeg(nil), r.segs[e.seq]...)})
		}
		blame.add(r.segs[e.seq])
	}
	snap.Blame = blame.rows()
	return snap
}

// TestTailRecorderMatchesSort feeds random streams with many tied
// latencies and starts, and segment counts across several slot sizes, and
// compares the recorder with a reference that sorts everything and keeps
// the top keep — including a snapshot taken mid-stream, which must not
// change as more requests arrive.
func TestTailRecorderMatchesSort(t *testing.T) {
	res := []Res{0, Intern("nand.ch0.w0"), Intern("nand.ch1.w1"), Intern("pcie.dma"), Intern("nvme.sq0")}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topK, keep := 1+rng.Intn(5), 1+rng.Intn(40)
		r := NewTailRecorder(topK, keep)
		keep = max(keep, topK) // as the recorder clamps it
		ref := &rankedRef{segs: map[uint64][]StageSeg{}}
		var scratch []StageSeg
		var mid, midWant *TailSnapshot
		const requests = 2000
		for i := 0; i < requests; i++ {
			start := sim.Time(rng.Intn(50)) * 10
			end := start + sim.Time(rng.Intn(8))*100
			n := rng.Intn(6)
			if rng.Intn(8) == 0 {
				n = rng.Intn(70) // spills into the larger slot sizes
			}
			scratch = scratch[:0]
			for k := 0; k < n; k++ {
				// Segments need not tile the request here: the recorder
				// copies them verbatim.
				scratch = append(scratch, StageSeg{Start: sim.Time(k), End: sim.Time(2*k + rng.Intn(3)),
					Stage: Stage(rng.Intn(int(NumStages))), Res: res[rng.Intn(len(res))]})
			}
			r.Observe(scratch, start, end)
			ref.observe(scratch, start, end)
			if i == requests/2 {
				mid, midWant = r.Snapshot(), ref.snapshot(topK, keep)
				if !reflect.DeepEqual(mid, midWant) {
					t.Fatalf("seed %d: mid-stream snapshot\n got %+v\nwant %+v", seed, mid, midWant)
				}
			}
		}
		if got, want := r.Snapshot(), ref.snapshot(topK, keep); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshot\n got %+v\nwant %+v", seed, got, want)
		}
		if !reflect.DeepEqual(mid, midWant) {
			t.Fatalf("seed %d: later observations changed the mid-stream snapshot", seed)
		}
		if r.Observed() != requests {
			t.Fatalf("seed %d: observed %d, want %d", seed, r.Observed(), requests)
		}
	}
}

// TestTailRecorderRoundTripsAnySegments checks that packing loses nothing:
// segments that overlap, leave gaps, run backwards or last 2^32 ns and
// more, at times up to the int64 limits, in requests of 0 to 70 segments
// whose latencies and starts tie, come back from Snapshot exactly as the
// reference keeps them.
func TestTailRecorderRoundTripsAnySegments(t *testing.T) {
	res := []Res{0, Intern("nand.ch0.w0"), Intern("pcie.dma"), Res(0xabcd), math.MaxUint16}
	durs := []sim.Time{0, 1, -1, 127, -300, 1 << 32, 1<<32 + 7, -(1 << 40), 1 << 62, math.MaxInt64, math.MinInt64}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topK, keep := 1+rng.Intn(5), 1+rng.Intn(40)
		r := NewTailRecorder(topK, keep)
		keep = max(keep, topK)
		ref := &rankedRef{segs: map[uint64][]StageSeg{}}
		var scratch []StageSeg
		const requests = 1500
		for i := 0; i < requests; i++ {
			start := sim.Time(rng.Intn(20)) * 10
			end := start + sim.Time(rng.Intn(6))*100
			scratch = scratch[:0]
			at := start
			for k, n := 0, rng.Intn(71); k < n; k++ {
				switch rng.Intn(5) {
				case 0: // a gap
					at += sim.Time(rng.Int63n(1 << 40))
				case 1: // an overlap
					at -= sim.Time(rng.Int63n(1 << 40))
				case 2: // anywhere, up to the int64 limits
					at = sim.Time(rng.Uint64())
				}
				d := durs[rng.Intn(len(durs))]
				if rng.Intn(2) == 0 {
					d = sim.Time(rng.Int63n(1 << 20))
				}
				scratch = append(scratch, StageSeg{Start: at, End: at + d,
					Stage: Stage(rng.Intn(int(NumStages))), Res: res[rng.Intn(len(res))]})
				at += d
			}
			r.Observe(scratch, start, end)
			ref.observe(scratch, start, end)
			if i%500 == 250 {
				if got, want := r.Snapshot(), ref.snapshot(topK, keep); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, request %d: snapshot\n got %+v\nwant %+v", seed, i, got, want)
				}
			}
		}
		if got, want := r.Snapshot(), ref.snapshot(topK, keep); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshot\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestTailRecorderBytesPerKept bounds the store: over a stream that fills
// a kept set of 8-segment requests and then churns it, with every other
// request admitted, the recorder allocates at most 96 bytes per kept
// request.
func TestTailRecorderBytesPerKept(t *testing.T) {
	const keep = 4096
	r := NewTailRecorder(5, keep)
	cache, nand := Intern("host.cache"), Intern("nand.ch0.w0")
	segs := make([]StageSeg, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8*keep; i++ {
		start := sim.Time(i) * 100_000
		at := start
		for k := range segs {
			d, res := sim.Time(200+(i*7+k*131)%4000), cache
			if k == 5 && i%2 == 1 { // a flash read outranks every hit so far
				d, res = 40_000+sim.Time(i), nand
			}
			segs[k] = StageSeg{Start: at, End: at + d, Stage: Stage(k), Res: res}
			at += d
		}
		r.Observe(segs, start, at)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 96*keep {
		t.Fatalf("recorder allocated %d B for %d kept requests (%.1f B each), want at most 96 each",
			got, keep, float64(got)/keep)
	}
	if snap := r.Snapshot(); snap.Kept != keep || len(snap.TopK[0].Segs) != 8 {
		t.Fatalf("kept %d, top exemplar holds %d segments; want %d and 8", snap.Kept, len(snap.TopK[0].Segs), keep)
	}
}

// TestBlameSortedByName interns resources in reverse name order: blame rows
// must still come out by stage, then name, never by ID.
func TestBlameSortedByName(t *testing.T) {
	c, b, a := Intern("zz.sorted.c"), Intern("zz.sorted.b"), Intern("zz.sorted.a")
	if !(c < b && b < a) {
		t.Fatalf("IDs %d %d %d were not assigned in intern order", c, b, a)
	}
	segs := []StageSeg{
		{Start: 0, End: 1, Stage: StageNAND, Res: c},
		{Start: 1, End: 3, Stage: StageNAND, Res: a},
		{Start: 3, End: 6, Stage: StageDMA, Res: b},
		{Start: 6, End: 10, Stage: StageNAND, Res: b},
		{Start: 10, End: 15, Stage: StageNAND},
	}
	want := []BlameSeg{
		{Stage: StageNAND, Res: "", Total: 5},
		{Stage: StageNAND, Res: "zz.sorted.a", Total: 2},
		{Stage: StageNAND, Res: "zz.sorted.b", Total: 4},
		{Stage: StageNAND, Res: "zz.sorted.c", Total: 1},
		{Stage: StageDMA, Res: "zz.sorted.b", Total: 3},
	}
	r := NewTailRecorder(1, 4)
	r.Observe(segs, 0, 15)
	if got := r.Snapshot().Blame; !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot().Blame = %+v, want %+v", got, want)
	}
}

// TestInternShared interns overlapping names from several goroutines, as
// parallel workers building their stacks do: every caller gets one ID per
// name, and the ID names it back.
func TestInternShared(t *testing.T) {
	const workers = 4
	ids := make([][]Res, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Each worker starts at a different name.
				ids[w] = append(ids[w], Intern(fmt.Sprintf("zz.shared.%d", (i+50*w)%200)))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i, id := range ids[w] {
			name := fmt.Sprintf("zz.shared.%d", (i+50*w)%200)
			if id.String() != name || id != ids[0][(i+50*w)%200] {
				t.Fatalf("worker %d: %q got ID %d (%q), worker 0 got %d", w, name, id, id.String(), ids[0][(i+50*w)%200])
			}
		}
	}
	if Intern("") != 0 || Res(0).String() != "" {
		t.Fatal("the empty name must be resource 0")
	}
}
