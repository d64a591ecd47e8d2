package telemetry

import (
	"reflect"
	"testing"

	"pipette/internal/sim"
)

// seg is a test shorthand for a contiguous span.
func seg(st Stage, res string, a, b sim.Time) StageSeg {
	return StageSeg{Stage: st, Res: res, Start: a, End: b}
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
	if got := snap.TopK[0].Segs[0]; got.Stage != StageNAND || got.Res != "nand.ch0.w0" {
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

func TestBlameVectorFolds(t *testing.T) {
	got := BlameVector([]StageSeg{
		seg(StageNAND, "nand.ch0.w0", 0, 10),
		seg(StageDMA, "pcie.dma", 10, 14),
		seg(StageNAND, "nand.ch0.w0", 14, 20),
		seg(StageNAND, "nand.ch1.w0", 20, 25),
	})
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
	a.MarkRes(StageNAND, 10, "nand.ch0.w0")
	a.MarkRes(StageNAND, 25, "nand.ch0.w0") // merges
	a.MarkRes(StageNAND, 40, "nand.ch1.w2") // new segment, same stage
	a.MarkRes(StageDMA, 44, "pcie.dma")
	a.Finish(44)

	want := []StageSeg{
		seg(StageNAND, "nand.ch0.w0", 0, 25),
		seg(StageNAND, "nand.ch1.w2", 25, 40),
		seg(StageDMA, "pcie.dma", 40, 44),
	}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments = %+v, want %+v", segs, want)
	}
	if a.Sum() != 44 || a.Gaps() != 0 {
		t.Fatalf("sum %d gaps %d, want 44 and 0", a.Sum(), a.Gaps())
	}
	if got := a.Total(StageNAND); got != 40 {
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
