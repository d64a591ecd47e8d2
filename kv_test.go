package pipette

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/core"
	"pipette/internal/sim"
)

func TestKVPublicAPI(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20, PageCacheBytes: 4 << 20})
	kv, err := sys.OpenKV(KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := kv.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := kv.Get("k042")
	if err != nil || !bytes.Equal(got, []byte("value-42")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if sys.Now() == 0 {
		t.Fatal("KV operations advanced no virtual time")
	}
	if err := kv.Delete("k042"); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Get("k042"); err != ErrNotFound {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
	var keys []string
	if err := kv.Scan("k040", 3, func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != fmt.Sprint([]string{"k040", "k041", "k043"}) {
		t.Fatalf("Scan = %v", keys)
	}

	// Restart: close, reopen, state recovered from the segment files.
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := sys.OpenKV(KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kv2.Len() != 199 {
		t.Fatalf("Len after restart = %d, want 199", kv2.Len())
	}
	if _, err := kv2.Get("k042"); err != ErrNotFound {
		t.Fatalf("deleted key resurrected by restart: %v", err)
	}
	if st := kv2.Stats(); st.Recovered == 0 {
		t.Fatal("restart replayed no records")
	}

	// MaintenanceTick compacts registered stores without error.
	for i := 0; i < 200; i++ {
		if err := kv2.Put(fmt.Sprintf("k%03d", i%50), bytes.Repeat([]byte("x"), 400)); err != nil {
			t.Fatal(err)
		}
	}
	sys.MaintenanceTick()
}

func TestFileClose(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 128 << 20})
	if err := sys.CreateFile("x", 1<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("x", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("read through closed handle succeeded")
	}
	if err := f.Close(); err == nil {
		t.Fatal("double close not reported")
	}
	// The file itself is untouched: a fresh handle works.
	f2, err := sys.Open("x", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
}

// An LSM store under a YCSB-A loop whose fine-cache arena never fills:
// the admission threshold has nothing to guard and stays at its initial
// value, though compaction and merges keep streaming new ranges.
func TestKVThresholdHoldsWhileArenaHasRoom(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20, PageCacheBytes: 1 << 20, FineCacheBytes: 8 << 20})
	kv, err := sys.OpenKV(KVOptions{Index: "lsm", SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const records = 20000
	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < records; i++ {
		if err := kv.Put(fmt.Sprintf("user%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for op := 0; op < 8000; op++ {
		key := fmt.Sprintf("user%05d", rng.Uint64n(records))
		if rng.Uint64n(2) == 0 {
			if _, err := kv.Get(key); err != nil {
				t.Fatal(err)
			}
		} else if err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if op%1000 == 999 {
			sys.MaintenanceTick()
		}
	}
	r := sys.Report()
	if r.Core.Evictions != 0 || r.Core.Migrations != 0 {
		t.Fatalf("setup: the arena filled: %+v", r.Core)
	}
	if r.Core.FineReads < 4*core.AdaptWindow {
		t.Fatalf("setup: %d fine reads span too few adaptation windows", r.Core.FineReads)
	}
	if want := core.DefaultConfig().InitialThreshold; r.Threshold != want {
		t.Fatalf("threshold %d (ups %d), want %d", r.Threshold, r.Core.ThresholdUps, want)
	}
}

// The page-cache budget is a hard budget: KV writes to files the fine cache
// tracks rebalance the shared budget on every write, and that rebalance
// must not lift a small page cache to a floor above it.
func TestKVWritesKeepPageCacheBudget(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20, PageCacheBytes: 64 << 10})
	kv, err := sys.OpenKV(KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const want = 16 // 64 KiB of 4 KiB pages
	if got := sys.st.V.PageCache().Capacity(); got != want {
		t.Fatalf("page cache starts at %d pages, want %d", got, want)
	}
	// 2,000 values of 200 B overflow the page cache, so Gets take the fine
	// path and the fine cache tracks the value log.
	val := make([]byte, 200)
	put := func(round int) {
		for i := 0; i < 2000; i++ {
			val[0], val[1] = byte(round), byte(i)
			if err := kv.Put(fmt.Sprintf("k%05d", i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0)
	for i := 0; i < 2000; i++ {
		if _, err := kv.Get(fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	if sys.st.Core.Stats().FineReads == 0 {
		t.Fatal("setup: no fine reads")
	}
	if got := sys.st.V.PageCache().Capacity(); got != want {
		t.Fatalf("page cache grew to %d pages after KV writes, budget %d", got, want)
	}
}
