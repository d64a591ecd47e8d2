package sim

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It is not safe for concurrent use; give each generator its own RNG.
type RNG struct {
	state uint64

	// Uint64n threshold memo: workload generators draw from the same range
	// millions of times, and the unbiased-tail computation is a 64-bit
	// division. Caching it preserves the exact output stream.
	lastN   uint64
	lastMax uint64
}

// NewRNG returns an RNG seeded with seed. Distinct seeds give independent
// streams for practical purposes.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method would be faster but changes the
	// value stream; a plain modulo is fine here because n is tiny relative
	// to 2^64 in all our uses. Reject the biased tail to keep the
	// distribution exact.
	if n != r.lastN {
		r.lastN = n
		r.lastMax = (^uint64(0)) - (^uint64(0))%n
	}
	max := r.lastMax
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split derives an independent RNG from this one, for handing to a
// sub-generator without correlating streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}
