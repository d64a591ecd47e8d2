package sim

import (
	"fmt"
	"math"
)

// Zipf draws items from a zipfian popularity distribution with parameter
// theta in (0, 1), the YCSB convention used by the paper ("zipfian,
// alpha = 0.8"). Item 0 is the most popular.
//
// The implementation follows Gray et al. "Quickly Generating Billion-Record
// Synthetic Databases" (the algorithm YCSB's ZipfianGenerator uses), which —
// unlike math/rand's Zipf — supports exponents below 1.
type Zipf struct {
	rng   *RNG
	n     uint64
	theta float64

	alpha  float64
	zetaN  float64
	zeta2  float64
	eta    float64
	halfPt float64 // 1 + 0.5^theta
}

// NewZipf creates a zipfian generator over n items with exponent theta.
// theta must be in (0, 1); n must be >= 1.
func NewZipf(rng *RNG, n uint64, theta float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: zipf needs n >= 1, got %d", n)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("sim: zipf theta must be in (0,1), got %g", theta)
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetaN = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1.0 - math.Pow(2.0/float64(n), 1.0-theta)) / (1.0 - z.zeta2/z.zetaN)
	z.halfPt = 1.0 + math.Pow(0.5, theta)
	return z, nil
}

// Next draws the next item rank in [0, n), rank 0 most popular.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetaN
	if uz < 1.0 {
		return 0
	}
	if uz < z.halfPt {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// O(n); the generators are built once per workload so this is acceptable up
// to the tens of millions of items the paper's table sizes imply.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// ScrambledZipf composes Zipf with a hash so that popular items are spread
// uniformly across the key space instead of clustered at the low ranks —
// YCSB's "scrambled zipfian". This is what makes the paper's zipfian
// workloads have temporal (reuse) locality without artificial spatial
// locality.
type ScrambledZipf struct {
	z *Zipf
	n uint64
}

// NewScrambledZipf creates a scrambled zipfian generator over n items.
func NewScrambledZipf(rng *RNG, n uint64, theta float64) (*ScrambledZipf, error) {
	z, err := NewZipf(rng, n, theta)
	if err != nil {
		return nil, err
	}
	return &ScrambledZipf{z: z, n: n}, nil
}

// Next draws the next scrambled item in [0, n).
func (s *ScrambledZipf) Next() uint64 {
	// Offset before hashing: Mix64 is a fixed-point at 0, which would pin
	// the hottest rank to item 0 and defeat the scrambling.
	return Mix64(s.z.Next()+0x9e3779b97f4a7c15) % s.n
}

// Mix64 is a strong 64-bit finalizer (splitmix64's) usable as a cheap hash.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
