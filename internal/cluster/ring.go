// Package cluster is the sharded multi-SSD serving tier: a consistent-hash
// router that places a namespaced KV keyspace across N independently
// simulated SSD stacks, R-way replication with hedged reads and failover,
// and an admission layer doing per-tenant token-bucket rate limiting plus
// per-shard queue backpressure. Everything composes the existing
// subsystems — each shard is a full private stack (NAND, FTL, controller,
// driver, VFS, log-structured KV store) and the cluster sequences requests
// across them with one event loop over plain records, so a whole-cluster
// replay is as deterministic as a single-device one.
package cluster

import (
	"sort"

	"pipette/internal/sim"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring with virtual nodes. Placement is fully
// deterministic: virtual-node positions derive from (shard, vnode) through
// the simulator's Mix64, keys hash through HashKey, and ties break by
// shard id — the same membership always yields the same ring, across runs
// and platforms.
type Ring struct {
	points []ringPoint // sorted by (hash, shard)
	shards map[int]struct{}
}

// DefaultVirtualNodes is the number of ring positions per shard: enough
// that the per-shard keyspace share stays within a few percent of 1/N.
const DefaultVirtualNodes = 128

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{shards: make(map[int]struct{})}
}

// vnodeHash positions one (shard, vnode) pair on the circle.
func vnodeHash(shard, vnode int) uint64 {
	return sim.Mix64(uint64(shard)*0x9e3779b97f4a7c15 ^ uint64(vnode)*0xc2b2ae3d27d4eb4f ^ 0xc1a57e12)
}

// Add places a shard's virtual nodes on the ring. Adding a present shard
// is a no-op.
func (r *Ring) Add(shard int) {
	if _, ok := r.shards[shard]; ok {
		return
	}
	r.shards[shard] = struct{}{}
	for v := 0; v < DefaultVirtualNodes; v++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(shard, v), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// HashKey maps a key string onto the circle: FNV-1a finalized through
// Mix64 so consecutive keys scatter.
func HashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return sim.Mix64(h)
}

// LookupN returns the n distinct shards a key replicates on, walking the
// ring clockwise from the key's position; the first entry is the primary.
// n is clamped to the membership size. The result is appended into dst
// (reused, so the hot path allocates nothing once warm).
func (r *Ring) LookupN(h uint64, n int, dst []int) []int {
	if len(r.points) == 0 {
		panic("cluster: lookup on empty ring")
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	dst = dst[:0]
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for len(dst) < n {
		if i == len(r.points) {
			i = 0
		}
		s := r.points[i].shard
		seen := false
		for _, d := range dst {
			if d == s {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, s)
		}
		i++
	}
	return dst
}
