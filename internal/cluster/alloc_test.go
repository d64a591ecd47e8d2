package cluster

import (
	"runtime"
	"testing"

	"pipette/internal/workload"
)

// readReplayAllocs counts the heap allocations of one read-only replay of
// the given length, with no tail recorder, on a freshly loaded
// two-replica cluster whose records outgrow the shards' caches. A first
// replay reads every key twice, so the caches have filled before the
// measured one starts.
func readReplayAllocs(t *testing.T, requests int) uint64 {
	const records = 8192
	c, start := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 4, Replicas: 2, Tenants: 1},
		records: records,
	})
	keys := make([]string, records)
	for k := range keys {
		keys[k] = testKey(0, uint64(k))
	}
	arr, err := workload.NewPoisson(30_000, 99)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() Request {
		i++
		return Request{Key: keys[i*7919%records]}
	}
	if _, err := c.Replay(next, 2*records, ReplayOpts{Arrivals: arr, Start: start, TickEvery: 64}); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := c.Replay(next, requests, ReplayOpts{Arrivals: arr, Start: c.now, TickEvery: 64})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hist.Count() != uint64(requests) {
		t.Fatalf("%d of %d reads completed", res.Hist.Count(), requests)
	}
	return after.Mallocs - before.Mallocs
}

// TestClusterReadsAllocFree: a read lives in a recycled pending slot, its
// shard FIFO holds the slot's index and its events are plain records, so
// the 10,000 reads the longer replay adds allocate less than one per
// thousand — what remains is the doubling growth of the replay's slices.
func TestClusterReadsAllocFree(t *testing.T) {
	short, long := readReplayAllocs(t, 2_000), readReplayAllocs(t, 12_000)
	if extra := (float64(long) - float64(short)) / 10_000; extra >= 0.001 {
		t.Fatalf("10,000 more reads allocated %.3f times each (%d allocations at 2,000 reads, %d at 12,000), want < 0.001",
			extra, short, long)
	}
	t.Logf("%d allocations at 2,000 reads, %d at 12,000", short, long)
}
