package vfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/metrics"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
)

// TestDirectReadContent: a Direct read returns a dirty resident page's
// bytes, what the device holds for pages written back, and zeros for
// holes.
func TestDirectReadContent(t *testing.T) {
	const pages = 16
	v := testVFS(t, 8)
	f, err := v.Create("sparse", pages*4096, extfs.CreateOpts{}, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, pages*4096)
	rng := rand.New(rand.NewSource(1))
	now := sim.Time(0)
	// Pages 0-11 are written, 12-15 stay holes. The cache holds 8 pages,
	// so the first writes are evicted and written back.
	for p := 0; p < 12; p++ {
		b := want[p*4096 : (p+1)*4096]
		rng.Read(b)
		if _, now, err = f.WriteAt(now, b, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	// A partial write dirties page 3 again over its written bytes.
	rng.Read(want[3*4096+100 : 3*4096+300])
	if _, now, err = f.WriteAt(now, want[3*4096+100:3*4096+300], 3*4096+100); err != nil {
		t.Fatal(err)
	}
	if v.cache.DirtyCount() == 0 || v.cache.Contains(pagecache.Key{File: f.Inode().Ino, Index: 0}) {
		t.Fatalf("setup: %d dirty pages, page 0 resident: %v", v.cache.DirtyCount(), v.cache.Contains(pagecache.Key{File: f.Inode().Ino, Index: 0}))
	}
	d, err := v.Open("sparse", ReadOnly|Direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int64 }{
		{0, pages * 4096}, {3*4096 + 50, 300}, {11*4096 + 4000, 4096 + 200}, {13 * 4096, 100},
	} {
		got := make([]byte, tc.n)
		for i := range got {
			got[i] = 0xAA // stale caller bytes a hole must overwrite
		}
		if _, now, err = d.ReadAt(now, got, tc.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[tc.off:tc.off+tc.n]) {
			t.Errorf("Direct read [%d,+%d) differs from the written bytes", tc.off, tc.n)
		}
	}
}

// lruOrder empties the cache one page at a time and returns the page
// indexes of file ino in the order they were evicted, oldest first.
func lruOrder(v *VFS, ino uint64, pages int) []uint64 {
	var order []uint64
	for n := v.cache.Len(); n > 0; n-- {
		_ = v.cache.Resize(n - 1)
		for p := 0; p < pages; p++ {
			key := pagecache.Key{File: ino, Index: uint64(p)}
			if !v.cache.Contains(key) && !slices.Contains(order, key.Index) {
				order = append(order, key.Index)
			}
		}
	}
	return order
}

// TestDirectReadLeavesCacheAlone: a Direct read over resident and
// non-resident pages leaves the page cache's size, counters and LRU order
// as they were, moves exactly the non-resident pages it covers, and
// consults no fine router.
func TestDirectReadLeavesCacheAlone(t *testing.T) {
	const pages = 64
	resident := 0 // of pages 2-21, before the Direct read
	build := func(direct bool) (*VFS, *File, metrics.IO) {
		v := testVFS(t, 16)
		router := &stubRouter{}
		v.SetRouter(router)
		f := createPreloaded(t, v, "data", pages*4096)
		now := sim.Time(0)
		buf := make([]byte, 100)
		var err error
		// Pages 10, 3, 7 and 12 and their read-ahead become resident.
		for _, p := range []int64{10, 3, 7, 12} {
			if _, now, err = f.ReadAt(now, buf, p*4096+50); err != nil {
				t.Fatal(err)
			}
		}
		var io0 metrics.IO
		if direct {
			d, err := v.Open("data", ReadOnly|Direct|FineGrained)
			if err != nil {
				t.Fatal(err)
			}
			for p := 2; p < 22; p++ {
				if v.cache.Contains(pagecache.Key{File: f.Inode().Ino, Index: uint64(p)}) {
					resident++
				}
			}
			hits, accesses, inserts, evicts := v.cache.Stats()
			n := v.cache.Len()
			io0 = v.IO()
			got := make([]byte, 20*4096-100)
			if _, _, err = d.ReadAt(now, got, 2*4096+100); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle(t, v, f, 2*4096+100, len(got))) {
				t.Error("Direct read content differs from the device's")
			}
			if h, a, i, e := v.cache.Stats(); h != hits || a != accesses || i != inserts || e != evicts || v.cache.Len() != n {
				t.Errorf("page cache moved: stats %d/%d/%d/%d -> %d/%d/%d/%d, len %d -> %d",
					hits, accesses, inserts, evicts, h, a, i, e, n, v.cache.Len())
			}
			if router.fineCalls != 0 {
				t.Errorf("the fine router saw %d calls", router.fineCalls)
			}
		}
		return v, f, io0
	}
	v, f, io0 := build(true)
	// [2*4096+100, 22*4096) covers pages 2-21.
	if resident == 0 || resident == 20 {
		t.Fatalf("setup: %d of the 20 pages read are resident; want some", resident)
	}
	io1 := v.IO()
	if got, want := io1.BytesTransferred-io0.BytesTransferred, uint64(20-resident)*4096; got != want {
		t.Errorf("Direct read transferred %d bytes, want %d (%d pages)", got, want, 20-resident)
	}
	if got := io1.BlockReads - io0.BlockReads; got != uint64(20-resident) {
		t.Errorf("Direct read counted %d block reads, want %d", got, 20-resident)
	}
	if got := io1.BytesRequested - io0.BytesRequested; got != 20*4096-100 {
		t.Errorf("Direct read counted %d bytes requested, want %d", got, 20*4096-100)
	}
	twin, twinF, _ := build(false)
	if got, want := lruOrder(v, f.Inode().Ino, pages), lruOrder(twin, twinF.Inode().Ino, pages); !slices.Equal(got, want) {
		t.Errorf("LRU order after a Direct read %v, without one %v", got, want)
	}
}

// directReadFixture is a preloaded file of 512 pages and a Direct handle
// on it.
func directReadFixture(tb testing.TB) *File {
	v := testVFS(tb, 16)
	createPreloaded(tb, v, "data", 512*4096)
	d, err := v.Open("data", ReadOnly|Direct)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestDirectReadAllocFree: a 256-page Direct read allocates nothing once
// the VFS and block layer scratch has grown.
func TestDirectReadAllocFree(t *testing.T) {
	d := directReadFixture(t)
	buf := make([]byte, 256*4096)
	now := sim.Time(0)
	read := func() {
		var err error
		if _, now, err = d.ReadAt(now, buf, 128*4096); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Errorf("a 256-page Direct read allocated %v times, want 0", allocs)
	}
}

// BenchmarkDirectRead times a 256-page (1 MiB) Direct read of pages no
// cache holds, after one read has grown the scratch it reuses.
func BenchmarkDirectRead(b *testing.B) {
	d := directReadFixture(b)
	buf := make([]byte, 256*4096)
	now, err := d.ReadFull(0, buf, 256*4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, now, err = d.ReadAt(now, buf, int64(i%2)*256*4096); err != nil {
			b.Fatal(err)
		}
	}
}
