package workload

import "pipette/internal/sim"

// KeyChooser is the one shared key/index selector behind every generator in
// this package: it draws items from [0, n) either uniformly or from a
// scrambled zipfian. The synthetic mixes, the app workloads, and the YCSB
// suite all used to hand-roll this pairing; they now share it.
//
// For Uniform the draws consume rng directly — generators that interleave
// key draws with other uses of the same RNG (the synthetic mixes share one
// stream between location and size draws) keep their exact historical
// sequences. For Zipfian rng seeds the zipf state and is consumed only by
// it, again matching the historical construction.
type KeyChooser struct {
	n    uint64
	rng  *sim.RNG
	zipf *sim.ScrambledZipf
}

// NewKeyChooser builds a chooser over n items.
func NewKeyChooser(rng *sim.RNG, dist Dist, n uint64, theta float64) (*KeyChooser, error) {
	kc := &KeyChooser{n: n, rng: rng}
	if dist == Zipfian {
		z, err := sim.NewScrambledZipf(rng, n, theta)
		if err != nil {
			return nil, err
		}
		kc.zipf = z
	}
	return kc, nil
}

// Next draws the next item in [0, n).
func (k *KeyChooser) Next() uint64 {
	if k.zipf != nil {
		return k.zipf.Next()
	}
	return k.rng.Uint64n(k.n)
}

// hashUnit01 maps x to a deterministic uniform draw in [0, 1) — the hashed
// per-item draw the layout generators (posting sizes, node degrees, value
// sizes) derive their distributions from.
func hashUnit01(x uint64) float64 {
	return float64(sim.Mix64(x)>>11) / (1 << 53)
}
