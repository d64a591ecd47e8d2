package bench

import (
	"strings"
	"testing"
)

// clusterTestScale shrinks the sweep so the grid (2 replication factors x
// 1 skew x healthy/degraded = 4 cells) runs in test time while still
// exercising replication, hedging, QoS throttling, and the degraded
// member's failover path.
func clusterTestScale() Scale {
	s := TinyScale()
	s.ClusterShards = 3
	s.ClusterReplicas = []int{1, 2}
	s.ClusterSkews = []float64{0.99}
	s.ClusterTenants = 2
	s.ClusterRecords = 2048 // enough to spill shard 0's cache, so its faulted reads reach flash
	s.ClusterRequests = 500
	s.ClusterRate = 30_000
	s.ClusterDepth = 4
	s.ClusterQueue = 8
	s.ClusterTenantRate = 2_000 // low enough to beat the bucket's burst in a short run
	s.ClusterShardBytes = 4 << 20
	return s
}

// TestClusterDeterministicAcrossWorkers runs the cluster experiment at
// -j 1 and -j 8 and requires the stdout tables, the export bundle, and the
// rendered report HTML to be byte-identical — including the degraded-mode
// cells, where the faulted member's injection stream must not leak
// host-scheduling order into the shared-nothing cells.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	out, _, html, _ := exportAcrossWorkers(t, "cluster", clusterTestScale(), 1, 8)
	for _, want := range []string{"per-shard ledger", "degraded", "hedged"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster stdout misses %q", want)
		}
	}
	for _, want := range []string{"Cluster summary", "Per-shard utilization"} {
		if !strings.Contains(html, want) {
			t.Errorf("cluster report HTML misses %q", want)
		}
	}
}

// TestClusterCellMeasuresTier runs one degraded, replicated cell directly
// and checks the measurement invariants the sweep's tables rely on: the
// ledger conserves arrivals, the QoS limiter throttles the heavy tenant,
// the faulted member records media errors that surviving replicas absorb,
// and the snapshot's goodput matches the histogram.
func TestClusterCellMeasuresTier(t *testing.T) {
	s := clusterTestScale()
	slot, err := runClusterCell(s, clusterPoint{replicas: 2, skew: 0.99, degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	cres := slot.cres
	if cres.Arrived != uint64(s.ClusterRequests) {
		t.Fatalf("arrived %d, want %d", cres.Arrived, s.ClusterRequests)
	}
	if cres.Admitted+cres.Rejected+cres.Throttled != cres.Arrived {
		t.Fatalf("ledger does not conserve: %+v", cres)
	}
	if cres.Throttled == 0 {
		t.Error("per-tenant QoS never throttled the heavy tenant")
	}
	var media uint64
	for _, ss := range cres.Shards {
		media += ss.MediaErrors
	}
	if media == 0 {
		t.Error("degraded member recorded no media errors")
	}
	if cres.Lost*10 > cres.Admitted {
		t.Errorf("replication failed to absorb the faults: %d/%d lost", cres.Lost, cres.Admitted)
	}
	if slot.res.Snapshot.Ops != cres.Hist.Count() {
		t.Errorf("snapshot ops %d != histogram count %d", slot.res.Snapshot.Ops, cres.Hist.Count())
	}
	if len(slot.res.Shards) != s.ClusterShards {
		t.Fatalf("shard summaries: got %d, want %d", len(slot.res.Shards), s.ClusterShards)
	}
	if !slot.res.Shards[0].Faulted {
		t.Error("shard 0 not marked faulted in the summary")
	}
	var util float64
	for _, ss := range slot.res.Shards {
		if ss.Utilization > util {
			util = ss.Utilization
		}
	}
	if util <= 0 {
		t.Error("no shard recorded replay utilization")
	}
}
