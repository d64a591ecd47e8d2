package index

import "pipette/internal/sim"

// bloom is a standard double-hashing Bloom filter, sized at build time by
// bits per key. Runs are immutable, so filters are built once at flush or
// merge and never mutated afterwards; they live in host memory — the space
// the LSM spends to avoid touching the device on negative lookups.
type bloom struct {
	bits  []uint64
	nbits uint64
	k     int
}

// newBloom sizes a filter for n keys at bitsPerKey.
func newBloom(n, bitsPerKey int) *bloom {
	if n < 1 {
		n = 1
	}
	nbits := uint64(n) * uint64(bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	k := int(float64(bitsPerKey) * 0.69) // ln 2 * bits/key, the optimal count
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &bloom{bits: make([]uint64, (nbits+63)/64), nbits: nbits, k: k}
}

// bloomHashes derives the double-hashing pair for key: FNV-1a 64 mixed
// twice. The hash decides which runs a lookup probes, so it sets simulated
// device traffic; it must not change without a reason to move every LSM
// number.
func bloomHashes[K string | []byte](key K) (uint64, uint64) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h1 := sim.Mix64(h)
	h2 := sim.Mix64(h1) | 1
	return h1, h2
}

func (f *bloom) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// mayContain reports whether key could be in the set (false is definitive).
func (f *bloom) mayContain(key string) bool {
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
