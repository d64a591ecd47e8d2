package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %v, want 0", c.Now())
	}
	c.AdvanceTo(5 * Microsecond)
	if got := c.Now(); got != 5000 {
		t.Fatalf("Now = %v, want 5000", got)
	}
	c.AdvanceTo(4 * Microsecond) // backwards: no-op
	if got := c.Now(); got != 5000 {
		t.Fatalf("Now after backwards AdvanceTo = %v, want 5000", got)
	}
	c.AdvanceTo(9 * Microsecond)
	if got := c.Now(); got != 9000 {
		t.Fatalf("Now = %v, want 9000", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2.50us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
		{-2500, "-2.50us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, e1 := r.Acquire(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first op = [%d,%d], want [0,100]", s1, e1)
	}
	// Requested while busy: queues behind the first op.
	s2, e2 := r.Acquire(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second op = [%d,%d], want [100,200]", s2, e2)
	}
	// Requested after idle: starts immediately.
	s3, e3 := r.Acquire(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third op = [%d,%d], want [500,510]", s3, e3)
	}
}

func TestResourceSetParallelism(t *testing.T) {
	s := NewResourceSet(4)
	// One op per resource at t=0: they overlap.
	for i := 0; i < 4; i++ {
		start, end := s.Acquire(i, 0, 100)
		if start != 0 || end != 100 {
			t.Fatalf("resource %d = [%d,%d], want [0,100]", i, start, end)
		}
	}
	// A second op on resource 0 serializes.
	_, end := s.Acquire(0, 0, 100)
	if end != 200 {
		t.Fatalf("serialized op end = %v, want 200", end)
	}
}

// Property: resource operations never overlap and never start before request.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		var r Resource
		var now, prevEnd Time
		for _, d := range durs {
			dur := Time(d%1000 + 1)
			start, end := r.Acquire(now, dur)
			if start < now || start < prevEnd || end != start+dur {
				return false
			}
			prevEnd = end
			now += Time(d % 97) // requester moves forward irregularly
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs agreed %d/1000 times", same)
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1)
	const buckets = 16
	const n = 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestZipfParamValidation(t *testing.T) {
	r := NewRNG(1)
	if _, err := NewZipf(r, 0, 0.8); err == nil {
		t.Error("NewZipf(n=0) should fail")
	}
	if _, err := NewZipf(r, 10, 0); err == nil {
		t.Error("NewZipf(theta=0) should fail")
	}
	if _, err := NewZipf(r, 10, 1); err == nil {
		t.Error("NewZipf(theta=1) should fail")
	}
	if _, err := NewZipf(r, 10, 0.8); err != nil {
		t.Errorf("NewZipf(10, 0.8) failed: %v", err)
	}
}

func mustZipf(t testing.TB, rng *RNG, n uint64, theta float64) *Zipf {
	t.Helper()
	z, err := NewZipf(rng, n, theta)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZipfBounds(t *testing.T) {
	z := mustZipf(t, NewRNG(5), 1000, 0.8)
	for i := 0; i < 100000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("zipf draw %d out of range", v)
		}
	}
}

// The defining zipf property: rank-0 frequency should approximate
// 1/zeta(n, theta), and low ranks dominate.
func TestZipfSkew(t *testing.T) {
	const n = 10000
	const draws = 500000
	z := mustZipf(t, NewRNG(11), n, 0.8)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	wantP0 := 1.0 / zeta(n, 0.8)
	gotP0 := float64(counts[0]) / draws
	if math.Abs(gotP0-wantP0)/wantP0 > 0.05 {
		t.Errorf("P(rank 0) = %v, want ~%v", gotP0, wantP0)
	}
	// Top 1% of ranks should capture far more than 1% of the draws.
	var top int
	for i := 0; i < n/100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.25 {
		t.Errorf("top 1%% of ranks got %.1f%% of draws, want >25%%", frac*100)
	}
	// Frequencies should be (roughly) non-increasing at the head.
	for i := 1; i < 10; i++ {
		if counts[i] > counts[i-1]+counts[i-1]/4 {
			t.Errorf("rank %d count %d exceeds rank %d count %d", i, counts[i], i-1, counts[i-1])
		}
	}
}

func TestScrambledZipfSpreads(t *testing.T) {
	const n = 100000
	s, err := NewScrambledZipf(NewRNG(13), n, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Scrambling must keep range and determinism but break rank ordering:
	// the most frequent item should no longer be item 0.
	counts := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		v := s.Next()
		if v >= n {
			t.Fatalf("scrambled draw %d out of range", v)
		}
		counts[v]++
	}
	var hottest uint64
	best := -1
	for k, c := range counts {
		if c > best {
			best, hottest = c, k
		}
	}
	if hottest == 0 {
		t.Error("scrambled zipf hottest item is rank 0; scrambling had no effect")
	}
	if best < 200000/100 {
		t.Errorf("hottest item only drawn %d times; zipf skew lost in scrambling", best)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window of inputs.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := mustZipf(b, NewRNG(1), 1<<20, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
