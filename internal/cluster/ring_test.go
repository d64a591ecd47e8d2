package cluster

import (
	"fmt"
	"testing"
)

// primary returns the shard owning hash h.
func primary(r *Ring, h uint64) int { return r.LookupN(h, 1, nil)[0] }

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("t%d/user%08d", i%4, i)
	}
	return keys
}

// Placement must be a pure function of membership: the same shards yield
// the same routes regardless of the order they joined, in every run.
func TestRingDeterministicPlacement(t *testing.T) {
	t.Parallel()
	a := NewRing()
	for s := 0; s < 8; s++ {
		a.Add(s)
	}
	b := NewRing()
	for _, s := range []int{5, 0, 7, 2, 6, 1, 4, 3} { // join order must not matter
		b.Add(s)
	}
	var ra, rb []int
	for _, k := range testKeys(5000) {
		h := HashKey(k)
		if primary(a, h) != primary(b, h) {
			t.Fatalf("key %q: primaries differ across add orders", k)
		}
		ra = a.LookupN(h, 3, ra)
		rb = b.LookupN(h, 3, rb)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("key %q: replica sets differ: %v vs %v", k, ra, rb)
			}
		}
	}
}

// Removing one of N shards must move only that shard's keys, and adding a
// shard must move roughly K/(N+1) keys, all of them onto the newcomer —
// the consistent-hashing contract. Placement is a pure function of
// membership, so a removal is a ring built without the shard.
func TestRingKeyMovement(t *testing.T) {
	t.Parallel()
	const nShards, nKeys = 8, 20000
	const victim = 3
	full, without := NewRing(), NewRing()
	for s := 0; s < nShards; s++ {
		full.Add(s)
		if s != victim {
			without.Add(s)
		}
	}
	keys := testKeys(nKeys)
	before := make([]int, nKeys)
	for i, k := range keys {
		before[i] = primary(full, HashKey(k))
	}

	for i, k := range keys {
		after := primary(without, HashKey(k))
		if before[i] != victim && after != before[i] {
			t.Fatalf("key %q moved %d->%d though shard %d was removed", k, before[i], after, victim)
		}
		if after == victim {
			t.Fatalf("key %q still routes to removed shard", k)
		}
	}

	moved := 0
	full.Add(nShards) // ninth member
	for i, k := range keys {
		after := primary(full, HashKey(k))
		if after != before[i] {
			if after != nShards {
				t.Fatalf("key %q moved %d->%d, not onto the new shard", k, before[i], after)
			}
			moved++
		}
	}
	// Expectation is K/(N+1) ≈ 2222; 128 vnodes keeps the variance well
	// inside 2x, and zero movement would mean the ring is broken.
	if bound := 2 * nKeys / (nShards + 1); moved > bound {
		t.Fatalf("add moved %d keys, want <= %d (≈2·K/N)", moved, bound)
	}
	if moved < nKeys/(4*(nShards+1)) {
		t.Fatalf("add moved only %d keys, suspiciously few", moved)
	}
}

// LookupN must return R distinct live shards, primary first.
func TestRingReplicasDistinct(t *testing.T) {
	t.Parallel()
	r := NewRing()
	for s := 0; s < 5; s++ {
		r.Add(s)
	}
	var reps []int
	for _, k := range testKeys(3000) {
		h := HashKey(k)
		reps = r.LookupN(h, 3, reps)
		if len(reps) != 3 {
			t.Fatalf("key %q: %d replicas, want 3", k, len(reps))
		}
		if p := primary(r, h); reps[0] != p {
			t.Fatalf("key %q: first replica %d is not the primary %d", k, reps[0], p)
		}
		seen := map[int]bool{}
		for _, s := range reps {
			if seen[s] {
				t.Fatalf("key %q: duplicate shard %d in replica set %v", k, s, reps)
			}
			if s < 0 || s >= 5 {
				t.Fatalf("key %q: replica %d outside membership", k, s)
			}
			seen[s] = true
		}
	}
	// Over-asking clamps to the membership.
	if got := r.LookupN(HashKey("x"), 99, nil); len(got) != 5 {
		t.Fatalf("clamped replica set has %d shards, want 5", len(got))
	}
}

// With virtual nodes, shares should be within a small factor of 1/N.
func TestRingBalance(t *testing.T) {
	t.Parallel()
	const nShards, nKeys = 8, 40000
	r := NewRing()
	for s := 0; s < nShards; s++ {
		r.Add(s)
	}
	counts := make([]int, nShards)
	for _, k := range testKeys(nKeys) {
		counts[primary(r, HashKey(k))]++
	}
	for s, c := range counts {
		if c < nKeys/(3*nShards) || c > 3*nKeys/nShards {
			t.Fatalf("shard %d owns %d of %d keys — outside [1/3, 3]x of fair share %d", s, c, nKeys, nKeys/nShards)
		}
	}
}
