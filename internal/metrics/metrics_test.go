package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pipette/internal/sim"
)

func TestIOReadAmplification(t *testing.T) {
	var io IO
	if io.ReadAmplification() != 0 {
		t.Fatal("empty IO should report 0 amplification")
	}
	io.BytesRequested = 128
	io.BytesTransferred = 4096
	if got := io.ReadAmplification(); got != 32 {
		t.Fatalf("amplification = %v, want 32", got)
	}
}

func TestIOTrafficMBMatchesPaperUnits(t *testing.T) {
	// 2.5M transfers of 4096 B render as 9765.6 MB in the paper's Table 2.
	io := IO{BytesTransferred: 2_500_000 * 4096}
	if got := io.TrafficMB(); got < 9765.5 || got > 9765.7 {
		t.Fatalf("TrafficMB = %v, want ~9765.6", got)
	}
	// 2.5M transfers of 128 B render as 305.2 MB.
	io = IO{BytesTransferred: 2_500_000 * 128}
	if got := io.TrafficMB(); got < 305.1 || got > 305.3 {
		t.Fatalf("TrafficMB = %v, want ~305.2", got)
	}
}

func TestCacheHitRatio(t *testing.T) {
	var c Cache
	if c.HitRatio() != 0 {
		t.Fatal("empty cache should report 0 hit ratio")
	}
	for i := 0; i < 10; i++ {
		c.Record(i < 7)
	}
	if got := c.HitRatio(); got != 0.7 {
		t.Fatalf("HitRatio = %v, want 0.7", got)
	}
	if c.Hits != 7 || c.Accesses != 10 {
		t.Fatalf("counters = %d/%d, want 7/10", c.Hits, c.Accesses)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	samples := []sim.Time{100, 200, 300, 400, 10000}
	for _, s := range samples {
		h.Observe(s)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Min() != 100 || h.Max() != 10000 {
		t.Fatalf("min/max = %v/%v, want 100/10000", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 2200 {
		t.Fatalf("Mean = %v, want 2200", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%v count=%d", h.Min(), h.Count())
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(sim.Time(v % 1_000_000))
		}
		q50, q99 := h.Quantile(0.5), h.Quantile(0.99)
		// Quantiles must be ordered and within [min, max].
		return q50 <= q99 && q50 >= h.Min() && q99 <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	var h Histogram
	h.Observe(500)
	if h.Quantile(-1) != 500 || h.Quantile(2) != 500 {
		t.Fatal("out-of-range q should clamp")
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := log2Bucket(v); got != want {
			t.Errorf("log2Bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestLog2BucketMatchesShiftLoop pins log2Bucket to the shift loop it
// replaced, at 0, 1, every 2^k-1 and 2^k, and the largest value.
func TestLog2BucketMatchesShiftLoop(t *testing.T) {
	loop := func(v uint64) int {
		b := 0
		for v > 1 {
			v >>= 1
			b++
		}
		return b
	}
	vals := []uint64{0, 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		vals = append(vals, 1<<k-1, 1<<k)
	}
	for _, v := range vals {
		if got, want := log2Bucket(v), loop(v); got != want {
			t.Errorf("log2Bucket(%d) = %d, shift loop gives %d", v, got, want)
		}
	}
}

func TestSnapshotThroughput(t *testing.T) {
	s := Snapshot{Ops: 1000, Elapsed: sim.Second}
	if got := s.ThroughputOpsPerSec(); got != 1000 {
		t.Fatalf("ThroughputOpsPerSec = %v, want 1000", got)
	}
	s.IO.BytesRequested = 10 << 20
	if got := s.ThroughputMBPerSec(); got != 10 {
		t.Fatalf("ThroughputMBPerSec = %v, want 10", got)
	}
	var empty Snapshot
	if empty.ThroughputOpsPerSec() != 0 || empty.ThroughputMBPerSec() != 0 {
		t.Fatal("zero-elapsed snapshot should report 0 throughput")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Header: []string{"Workload", "A", "B"}}
	tab.AddRow("Block I/O", "1.00", "1.00")
	tab.AddRow("Pipette", "31.20", "15.00")
	out := tab.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("Render produced %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Workload") || !strings.Contains(lines[3], "31.20") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	// All lines should be equally wide (aligned columns).
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
}

func TestTableRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row arity did not panic")
		}
	}()
	tab := Table{Header: []string{"a", "b"}}
	tab.AddRow("only-one")
}

func TestTableCSV(t *testing.T) {
	tab := Table{Header: []string{"x", "y"}}
	tab.AddRow("1", "2")
	if got := tab.CSV(); got != "x,y\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestTableSort(t *testing.T) {
	tab := Table{Header: []string{"k", "v"}}
	tab.AddRow("b", "2")
	tab.AddRow("a", "1")
	tab.SortRowsByFirstColumn()
	if tab.Rows[0][0] != "a" {
		t.Fatalf("rows not sorted: %v", tab.Rows)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(100)
	a.Observe(200)
	b.Observe(50)
	b.Observe(4000)

	a.Merge(&b)
	if a.Count() != 4 {
		t.Fatalf("merged count = %d, want 4", a.Count())
	}
	if a.Sum() != 4350 {
		t.Fatalf("merged sum = %v, want 4350", a.Sum())
	}
	if a.Min() != 50 || a.Max() != 4000 {
		t.Fatalf("merged min/max = %v/%v, want 50/4000", a.Min(), a.Max())
	}

	// Merging nil or an empty histogram is a no-op.
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != 4 {
		t.Fatalf("no-op merge changed count to %d", a.Count())
	}

	// Merging into an empty histogram copies the extremes.
	var c Histogram
	c.Merge(&a)
	if c.Min() != 50 || c.Max() != 4000 || c.Count() != 4 {
		t.Fatalf("merge into empty = min %v max %v count %d", c.Min(), c.Max(), c.Count())
	}
}

func TestHistogramForEachBucket(t *testing.T) {
	var h Histogram
	h.Observe(1) // bucket 0: [0,2)
	h.Observe(5) // bucket 2: [4,8)
	h.Observe(5)
	h.Observe(1000) // bucket 9: [512,1024)

	type row struct {
		lo, hi sim.Time
		n      uint64
	}
	var got []row
	h.ForEachBucket(func(lo, hi sim.Time, n uint64) bool {
		got = append(got, row{lo, hi, n})
		return true
	})
	want := []row{{0, 2, 1}, {4, 8, 2}, {512, 1024, 1}}
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Early stop after the first bucket.
	calls := 0
	h.ForEachBucket(func(lo, hi sim.Time, n uint64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop made %d calls, want 1", calls)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	single := func() *Histogram {
		var h Histogram
		h.Observe(500)
		return &h
	}
	multi := func() *Histogram {
		var h Histogram
		for _, v := range []sim.Time{100, 200, 300, 400, 10000} {
			h.Observe(v)
		}
		return &h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want sim.Time
	}{
		{"empty", &Histogram{}, 0.5, 0},
		{"single q=0", single(), 0, 500},
		{"single q=0.5", single(), 0.5, 500},
		{"single q=1", single(), 1, 500},
		{"single q<0", single(), -1, 500},
		{"single q>1", single(), 2, 500},
		{"multi q=0 exact min", multi(), 0, 100},
		{"multi q=1 exact max", multi(), 1, 10000},
	}
	for _, c := range cases {
		if got := c.h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	// Mid quantiles stay within the observed range.
	h := multi()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if v := h.Quantile(q); v < h.Min() || v > h.Max() {
			t.Errorf("Quantile(%v) = %v outside [%v,%v]", q, v, h.Min(), h.Max())
		}
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := Table{Header: []string{"phase", "note"}}
	tab.AddRow("read, coalesced", "plain")
	tab.AddRow(`say "hi"`, "line\nbreak")
	want := "phase,note\n" +
		`"read, coalesced",plain` + "\n" +
		`"say ""hi""","line` + "\nbreak\"\n"
	if got := tab.CSV(); got != want {
		t.Fatalf("CSV quoting:\n got %q\nwant %q", got, want)
	}
}
