// Package bitset provides a dense fixed-size bit set used by the device
// layers in place of map[ID]bool membership sets. Besides the obvious
// space/lookup win, iteration order over a bitset is the numeric ID order —
// deterministic — where Go map iteration is deliberately randomized; the
// FTL's victim scans rely on that for reproducible simulations.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold bits [0, n).
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the capacity in bits.
func (s Set) Len() int { return s.n }

// Set sets bit i.
func (s Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (s Set) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// NextSet returns the index of the first set bit in [from, s.Len()), or -1
// if there is none. Scanning word-at-a-time keeps range iteration cheap even
// over sparse sets.
func (s Set) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from >> 6
	w := s.words[wi] >> (uint(from) & 63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}
