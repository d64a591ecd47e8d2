package cluster

import (
	"strings"
	"testing"

	"pipette/internal/telemetry"
)

// One registry scrape must cover the whole tier: the single-device
// families gain a shard label instead of colliding.
func TestClusterRegisterMetrics(t *testing.T) {
	t.Parallel()
	c, start := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 2, Replicas: 2, Tenants: 2},
		records: 64,
	})
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	res := testReplay(t, c, start, 64, 200)
	if res.Hist.Count() == 0 {
		t.Fatal("empty replay")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`pipette_stage_us_bucket{stage="nand",shard="0",`,
		`pipette_stage_us_bucket{stage="nand",shard="1",`,
		`pipette_stage_requests_total{shard="0"}`,
		`pipette_stage_requests_total{shard="1"}`,
		`pipette_resource_utilization{resource="nvme.ring",shard="0"}`,
		`pipette_resource_utilization{resource="nvme.ring",shard="1"}`,
		`pipette_resource_busy_ns_total{resource="nvme.ring",shard="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q\n%s", want, out[:min(2000, len(out))])
		}
	}
}
