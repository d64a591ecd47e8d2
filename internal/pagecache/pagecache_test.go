package pagecache

import (
	"testing"
	"testing/quick"
)

func newCache(t testing.TB, capacity int) *Cache {
	t.Helper()
	c, err := New(capacity, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 4096, nil); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(10, 0, nil); err == nil {
		t.Error("zero page size accepted")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newCache(t, 4)
	k := Key{File: 1, Index: 7}
	if _, _, ok := c.Lookup(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Insert(k, false, nil); err != nil {
		t.Fatal(err)
	}
	data, dirty, ok := c.Lookup(k)
	if !ok || dirty || data != nil {
		t.Fatalf("lookup = %v,%v,%v", data, dirty, ok)
	}
	hits, accesses, _, _ := c.Stats()
	if hits != 1 || accesses != 2 {
		t.Fatalf("stats %d/%d, want 1/2", hits, accesses)
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v", c.HitRatio())
	}
}

func TestInsertValidation(t *testing.T) {
	c := newCache(t, 4)
	if err := c.Insert(Key{}, true, []byte("short")); err == nil {
		t.Error("short dirty insert accepted")
	}
	if err := c.Insert(Key{}, false, make([]byte, 4096)); err == nil {
		t.Error("clean insert with data accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []Key
	c, err := New(2, 4096, func(k Key, dirty bool, data []byte) {
		evicted = append(evicted, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := Key{1, 1}, Key{1, 2}, Key{1, 3}
	for _, k := range []Key{k1, k2} {
		if err := c.Insert(k, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is LRU.
	c.Lookup(k1)
	if err := c.Insert(k3, false, nil); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != k2 {
		t.Fatalf("evicted %v, want [k2]", evicted)
	}
	if !c.Contains(k1) || !c.Contains(k3) || c.Contains(k2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyWritebackOnEvict(t *testing.T) {
	var gotKey Key
	var gotData []byte
	c, err := New(1, 4096, func(k Key, dirty bool, data []byte) {
		if dirty {
			gotKey, gotData = k, data
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	payload[0] = 0x5a
	if err := c.Insert(Key{2, 9}, true, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Key{2, 10}, false, nil); err != nil {
		t.Fatal(err)
	}
	if gotKey != (Key{2, 9}) || gotData[0] != 0x5a {
		t.Fatalf("writeback got %v", gotKey)
	}
}

func TestMarkDirty(t *testing.T) {
	c := newCache(t, 4)
	k := Key{1, 0}
	payload := make([]byte, 4096)
	ok, err := c.MarkDirty(k, payload)
	if err != nil || ok {
		t.Fatalf("MarkDirty on absent page = %v,%v", ok, err)
	}
	if err := c.Insert(k, false, nil); err != nil {
		t.Fatal(err)
	}
	ok, err = c.MarkDirty(k, payload)
	if err != nil || !ok {
		t.Fatalf("MarkDirty = %v,%v", ok, err)
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	if _, err := c.MarkDirty(k, payload[:5]); err == nil {
		t.Error("short dirty data accepted")
	}
}

// TestDirtyData: the accessor returns a dirty page's own buffer and nil for
// absent or clean pages, without counting an access or moving the page in
// the LRU.
func TestDirtyData(t *testing.T) {
	c := newCache(t, 2)
	dirty, clean := Key{1, 0}, Key{1, 1}
	payload := make([]byte, 4096)
	if err := c.Insert(dirty, true, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(clean, false, nil); err != nil {
		t.Fatal(err)
	}
	if d := c.DirtyData(dirty); len(d) != 4096 || &d[0] != &payload[0] {
		t.Fatal("DirtyData did not return the page's own buffer")
	}
	if c.DirtyData(clean) != nil || c.DirtyData(Key{1, 2}) != nil {
		t.Fatal("DirtyData returned bytes for a clean or absent page")
	}
	if hits, accesses, _, _ := c.Stats(); hits != 0 || accesses != 0 {
		t.Fatalf("DirtyData counted accesses: %d/%d", hits, accesses)
	}
	// dirty is still the LRU page: the next insert evicts it.
	if err := c.Insert(Key{1, 3}, false, nil); err != nil {
		t.Fatal(err)
	}
	if c.Contains(dirty) || !c.Contains(clean) {
		t.Fatal("DirtyData moved the page in the LRU")
	}
}

func TestFlushDirty(t *testing.T) {
	c := newCache(t, 4)
	payload := make([]byte, 4096)
	if err := c.Insert(Key{1, 1}, true, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Key{1, 2}, false, nil); err != nil {
		t.Fatal(err)
	}
	var flushed []Key
	err := c.FlushDirty(func(k Key, data []byte) error {
		flushed = append(flushed, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 1 || flushed[0] != (Key{1, 1}) {
		t.Fatalf("flushed %v", flushed)
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty pages remain after flush")
	}
	// Page stays resident, now clean and dataless.
	data, dirty, ok := c.Lookup(Key{1, 1})
	if !ok || dirty || data != nil {
		t.Fatal("flushed page state wrong")
	}
}

func TestRemove(t *testing.T) {
	c := newCache(t, 4)
	k := Key{3, 3}
	if c.Remove(k) {
		t.Fatal("removed absent page")
	}
	if err := c.Insert(k, false, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Remove(k) || c.Contains(k) {
		t.Fatal("remove failed")
	}
}

func TestResizeEvicts(t *testing.T) {
	c := newCache(t, 8)
	for i := uint64(0); i < 8; i++ {
		if err := c.Insert(Key{1, i}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after Resize(3)", c.Len())
	}
	// The survivors are the 3 most recent.
	for i := uint64(5); i < 8; i++ {
		if !c.Contains(Key{1, i}) {
			t.Fatalf("page %d evicted, want resident", i)
		}
	}
	if err := c.Resize(-1); err == nil {
		t.Error("negative resize accepted")
	}
}

func TestZeroCapacityAdmitsNothing(t *testing.T) {
	written := 0
	c, err := New(0, 4096, func(k Key, dirty bool, data []byte) {
		if dirty {
			written++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Key{1, 1}, false, nil); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache admitted a page")
	}
	if err := c.Insert(Key{1, 2}, true, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if written != 1 {
		t.Fatal("dirty insert into zero-capacity cache not written back")
	}
}

func TestMemoryBytes(t *testing.T) {
	c := newCache(t, 10)
	for i := uint64(0); i < 5; i++ {
		if err := c.Insert(Key{1, i}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.MemoryBytes(); got != 5*4096 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

// Property: residency never exceeds capacity and re-inserting is idempotent
// for Len.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw)%8 + 1
		c, err := New(capacity, 4096, nil)
		if err != nil {
			return false
		}
		for _, k := range keys {
			if err := c.Insert(Key{1, uint64(k % 32)}, false, nil); err != nil {
				return false
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadaheadRandomOpensInitialWindow(t *testing.T) {
	ra := DefaultReadahead()
	// Random misses still open the 4-page initial window (Linux 5.4
	// get_init_ra_size behaviour) — the pollution the paper measures.
	for i, idx := range []uint64{100, 7, 999, 42, 13} {
		if got := ra.OnMiss(idx); got != 4 {
			t.Fatalf("random miss %d fetched %d pages, want 4", i, got)
		}
	}
	if ra.Window() != 4 {
		t.Fatalf("window = %d after random stream", ra.Window())
	}
}

func TestReadaheadSequentialGrows(t *testing.T) {
	ra := NewReadahead(4, 32)
	if got := ra.OnMiss(10); got != 4 {
		t.Fatalf("first access fetched %d", got)
	}
	want := []int{8, 16, 32, 32}
	idx := uint64(11)
	for i, w := range want {
		if got := ra.OnMiss(idx); got != w {
			t.Fatalf("sequential miss %d fetched %d, want %d", i, got, w)
		}
		idx++
	}
	// A random jump resets to the initial window.
	if got := ra.OnMiss(10000); got != 4 {
		t.Fatalf("post-jump fetch = %d", got)
	}
	if ra.Window() != 4 {
		t.Fatal("window not reset by jump")
	}
}

func TestReadaheadHitKeepsStream(t *testing.T) {
	ra := NewReadahead(4, 32)
	ra.OnMiss(5) // opens window 4
	ra.OnMiss(6) // sequential: 8
	ra.OnHit(7)
	ra.OnHit(8)
	// Stream continued through hits; next miss doubles.
	if got := ra.OnMiss(9); got != 16 {
		t.Fatalf("miss after hits fetched %d, want 16", got)
	}
	// A non-adjacent hit resets the stream to the initial window.
	ra.OnHit(1000)
	if got := ra.OnMiss(2000); got != 4 {
		t.Fatalf("fetch after reset = %d", got)
	}
}

func TestReadaheadDegenerateParams(t *testing.T) {
	ra := NewReadahead(0, 0)
	ra.OnMiss(1)
	if got := ra.OnMiss(2); got != 1 {
		t.Fatalf("clamped readahead fetched %d", got)
	}
}
