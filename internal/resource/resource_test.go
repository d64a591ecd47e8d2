package resource

import (
	"bytes"
	"slices"
	"testing"

	"pipette/internal/sim"
)

func TestTimelineAccumulates(t *testing.T) {
	tr := NewTracker()
	ch := tr.Register("nand.ch0")
	ch.Add(0, 10*sim.Microsecond)
	ch.Add(20*sim.Microsecond, 30*sim.Microsecond)
	ch.Add(5, 5) // empty, ignored

	if got := ch.Busy(); got != 20*sim.Microsecond {
		t.Errorf("busy = %v, want 20us", got)
	}
	if ch.Ops() != 2 {
		t.Errorf("ops = %d, want 2", ch.Ops())
	}
	if got := ch.Utilization(100 * sim.Microsecond); got != 0.2 {
		t.Errorf("utilization = %v, want 0.2", got)
	}
}

func TestTimelineBinning(t *testing.T) {
	tr := NewTracker()
	tl := tr.Register("x")
	w := DefaultBinWidth
	// Interval straddling bins 0..2: covers all of bin 0 and 1, half of 2.
	tl.Add(0, 2*w+w/2)
	snap := tr.Snapshot(3 * w)
	bins := snap.Resources[0].Bins
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0] != int64(w) || bins[1] != int64(w) || bins[2] != int64(w/2) {
		t.Errorf("bins = %v, want [%d %d %d]", bins, w, w, w/2)
	}
	var sum int64
	for _, b := range bins {
		sum += b
	}
	if sum != int64(tl.Busy()) {
		t.Errorf("bin sum %d != busy %d", sum, tl.Busy())
	}
}

func TestTrackerRescaleSharedWidth(t *testing.T) {
	tr := NewTracker()
	a := tr.Register("a")
	b := tr.Register("b")
	a.Add(0, DefaultBinWidth) // lands in bin 0 at initial width

	// Push b far past the initial capacity; every timeline must rescale.
	far := DefaultBinWidth * sim.Time(DefaultMaxBins) * 4
	b.Add(far-DefaultBinWidth, far)

	snap := tr.Snapshot(far)
	if want := int64(DefaultBinWidth * 4); snap.BinNs != want {
		t.Fatalf("bin width = %d, want %d", snap.BinNs, want)
	}
	// a's busy time survived the merges, still in bin 0.
	if snap.Resources[0].Bins[0] != int64(DefaultBinWidth) {
		t.Errorf("a bin0 = %d, want %d", snap.Resources[0].Bins[0], DefaultBinWidth)
	}
	var sumA, sumB int64
	for _, v := range snap.Resources[0].Bins {
		sumA += v
	}
	for _, v := range snap.Resources[1].Bins {
		sumB += v
	}
	if sumA != int64(a.Busy()) || sumB != int64(b.Busy()) {
		t.Errorf("bin sums (%d, %d) != busy (%d, %d)", sumA, sumB, a.Busy(), b.Busy())
	}
}

// TestTimelineRescaleBoundaryIntervals pins the rescale trigger to its
// exact boundary: an interval ending precisely at the covered capacity
// must NOT double the bin width (cover is strict), one ending a single
// nanosecond past it must double exactly once, and bin-aligned intervals
// never leak into a neighbouring bin on either side of the rescale.
func TestTimelineRescaleBoundaryIntervals(t *testing.T) {
	w := DefaultBinWidth
	capacity := w * sim.Time(DefaultMaxBins)

	tr := NewTracker()
	tl := tr.Register("x")
	tl.Add(w, 2*w) // exactly bin 1, bin-aligned on both ends
	tl.Add(capacity-w, capacity)
	if got := tr.Snapshot(capacity).BinNs; got != int64(w) {
		t.Fatalf("interval ending at capacity rescaled: bin width %d, want %d", got, w)
	}
	bins := tr.Snapshot(capacity).Resources[0].Bins
	if bins[0] != 0 || bins[1] != int64(w) || bins[2] != 0 {
		t.Fatalf("bin-aligned interval leaked: bins[0..2] = %v", bins[:3])
	}
	if bins[DefaultMaxBins-1] != int64(w) {
		t.Fatalf("last bin = %d, want %d", bins[DefaultMaxBins-1], w)
	}

	// One nanosecond past capacity: exactly one doubling, mass preserved.
	tl.Add(capacity, capacity+1)
	snap := tr.Snapshot(capacity + 1)
	if snap.BinNs != int64(2*w) {
		t.Fatalf("bin width after boundary crossing = %d, want %d", snap.BinNs, 2*w)
	}
	var sum int64
	for _, b := range snap.Resources[0].Bins {
		sum += b
	}
	if sum != int64(tl.Busy()) || tl.Busy() != 2*w+1 {
		t.Fatalf("bin sum %d, busy %d, want both %d", sum, tl.Busy(), 2*w+1)
	}
	// The formerly bin-aligned interval now occupies merged bin 0.
	if snap.Resources[0].Bins[0] != int64(w) {
		t.Fatalf("merged bin 0 = %d, want %d", snap.Resources[0].Bins[0], w)
	}
}

// TestSnapshotJSONRoundTripEmptyTimelines covers the degenerate exports:
// registered resources that never saw traffic (bins omitted) and a
// zero-length run. Both must survive a JSON round trip byte-stably.
func TestSnapshotJSONRoundTripEmptyTimelines(t *testing.T) {
	tr := NewTracker()
	tr.Register("idle.a")
	tr.Register("idle.b")

	for _, elapsed := range []sim.Time{0, 10 * sim.Microsecond} {
		snap := tr.Snapshot(elapsed)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Resources) != 2 || got.Resources[0].Name != "idle.a" ||
			got.Resources[0].BusyNs != 0 || got.Resources[0].Ops != 0 {
			t.Fatalf("elapsed %v: round trip mismatch: %+v", elapsed, got)
		}
		if elapsed == 0 && got.Resources[0].Bins != nil {
			t.Fatalf("zero-length run must omit bins, got %v", got.Resources[0].Bins)
		}
		var buf2 bytes.Buffer
		if err := got.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if buf2.String() != buf.String() {
			t.Errorf("elapsed %v: empty-timeline JSON not byte-stable", elapsed)
		}
	}
}

func TestNilTrackerInert(t *testing.T) {
	var tr *Tracker
	tl := tr.Register("x")
	tl.Add(0, 100)
	if tl.Busy() != 0 || tl.Ops() != 0 || tl.Utilization(10) != 0 {
		t.Fatal("nil-tracker timeline must be inert")
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracker Len must be 0")
	}
	snap := tr.Snapshot(100)
	if len(snap.Resources) != 0 {
		t.Fatal("nil tracker snapshot must be empty")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := NewTracker()
	tr.Register("nand.ch0").Add(0, 5*sim.Microsecond)
	tr.Register("pcie.dma").Add(sim.Microsecond, 3*sim.Microsecond)
	snap := tr.Snapshot(10 * sim.Microsecond)

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 2 || got.Resources[0].Name != "nand.ch0" ||
		got.Resources[1].BusyNs != int64(2*sim.Microsecond) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("snapshot JSON is not byte-stable across a round trip")
	}
}

// TestTimelineAddMatchesDivisionReference replays random intervals on
// three timelines of one tracker beside a reference that finds every
// interval's bins by division, and requires identical bins throughout,
// across many rescales.
func TestTimelineAddMatchesDivisionReference(t *testing.T) {
	const n = 3
	tr := NewTracker()
	var tls [n]*Timeline
	var ref [n][]sim.Time
	for i := range tls {
		tls[i] = tr.Register("r")
		ref[i] = make([]sim.Time, DefaultMaxBins)
	}
	w := DefaultBinWidth
	refAdd := func(bins []sim.Time, start, end sim.Time) {
		for b := start / w; b <= (end-1)/w; b++ {
			lo, hi := max(start, b*w), min(end, (b+1)*w)
			bins[b] += hi - lo
		}
	}
	rng := sim.NewRNG(5)
	const dw = DefaultBinWidth
	var free [n]sim.Time
	rescales := 0
	for op := 0; op < 200000; op++ {
		i := int(rng.Uint64n(n))
		start := free[i]
		switch rng.Uint64n(8) {
		case 0: // idle gap, sometimes long
			start += sim.Time(rng.Uint64n(uint64(4 * dw)))
		case 1:
			start += sim.Time(rng.Uint64n(100))
		}
		end := start + 1 + sim.Time(rng.Uint64n(uint64(dw/8)))
		if rng.Uint64n(64) == 0 {
			end += sim.Time(rng.Uint64n(uint64(3 * dw))) // spans bins
		}
		free[i] = end
		for end > w*DefaultMaxBins {
			w *= 2
			rescales++
			for j := range ref {
				half := len(ref[j]) / 2
				for k := 0; k < half; k++ {
					ref[j][k] = ref[j][2*k] + ref[j][2*k+1]
				}
				clear(ref[j][half:])
			}
		}
		refAdd(ref[i], start, end)
		tls[i].Add(start, end)
		if op%997 == 0 || op == 199999 {
			for j := range tls {
				if !slices.Equal(tls[j].bins, ref[j]) {
					t.Fatalf("op %d: timeline %d bins diverged from the division reference", op, j)
				}
			}
		}
	}
	if rescales < 3 {
		t.Fatalf("only %d rescales exercised", rescales)
	}
}
