package vfs

import (
	"bytes"
	"math/rand"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
)

// writeCopying is WriteAt under the rule that predates in-place dirty-page
// edits, kept here as the reference: every written page gets a fresh
// buffer, a partial write fills it after one counted lookup (dirty bytes,
// the clean oracle, or a timed block read), and the replaced buffer is
// simply dropped.
func writeCopying(f *File, now sim.Time, data []byte, off int64) (sim.Time, error) {
	v := f.v
	now += SyscallOverhead
	ps := v.fs.PageSize()
	done := now
	first, last := uint64(off)/uint64(ps), uint64(off+int64(len(data))-1)/uint64(ps)
	for p := first; p <= last; p++ {
		lo, hi, dataLo, pageLo := overlap(off, len(data), p, ps)
		key := pagecache.Key{File: f.inode.Ino, Index: p}
		page := make([]byte, ps)
		if pageLo != 0 || hi-lo != int64(ps) {
			if old, dirty, ok := v.cache.Lookup(key); ok && dirty {
				copy(page, old)
			} else if ok {
				if err := v.fs.Peek(f.inode, int64(p)*int64(ps), page); err != nil {
					return done, err
				}
			} else {
				got, t, err := v.fetchPages(done, f, p, 1, page, 0)
				if err != nil {
					return t, err
				}
				if !got {
					clear(page)
				}
				done = t
			}
		}
		copy(page[pageLo:], data[dataLo:dataLo+int(hi-lo)])
		marked, err := v.cache.MarkDirty(key, page)
		if err != nil {
			return done, err
		}
		if !marked {
			if err := v.cache.Insert(key, true, page); err != nil {
				return done, err
			}
		}
	}
	v.io.Writes++
	done, err := v.drainWriteback(done)
	return v.copyOut(done), err
}

// pageBufs tracks every dirty-page buffer a VFS has handed out and checks
// that each is always in exactly one place: a resident dirty page, the
// writeback queue, or the free pool. A buffer that vanishes was dropped
// instead of recycled; one found twice is shared by two owners.
type pageBufs struct {
	seen map[*byte]bool
}

func (b *pageBufs) check(t *testing.T, v *VFS, ino uint64, pages int) {
	t.Helper()
	where := map[*byte]string{}
	place := func(buf []byte, loc string) {
		p := &buf[0]
		if prev, dup := where[p]; dup {
			t.Fatalf("page buffer is both %s and %s", prev, loc)
		}
		where[p] = loc
		b.seen[p] = true
	}
	for i := 0; i < pages; i++ {
		if d := v.cache.DirtyData(pagecache.Key{File: ino, Index: uint64(i)}); d != nil {
			place(d, "a dirty page")
		}
	}
	for _, wb := range v.pendingWB {
		place(wb.data, "queued for writeback")
	}
	for _, buf := range v.pageFree {
		place(buf, "in the free pool")
	}
	for p := range b.seen {
		if _, ok := where[p]; !ok {
			t.Fatal("a page buffer left the cache without returning to the pool")
		}
	}
}

// TestInPlaceDirtyWritesMatchCopyingRule drives one VFS through WriteAt and
// a twin through the copying reference rule with the same random mix of
// partial and full-page writes, reads, evictions and syncs, concentrated on
// a few pages. Bytes must match a shadow buffer; virtual times, page-cache
// counters and the flash contents must match the twin's, which also shows
// that no buffer queued for writeback is edited before it lands; and every
// buffer must stay accounted for.
func TestInPlaceDirtyWritesMatchCopyingRule(t *testing.T) {
	const pages, capacity = 12, 6
	ps := 4096
	size := int64(pages * ps)
	a, b := testVFS(t, capacity), testVFS(t, capacity)
	fa, fb := createPreloaded(t, a, "f", size), createPreloaded(t, b, "f", size)
	shadow := oracle(t, a, fa, 0, int(size))
	bufs := &pageBufs{seen: map[*byte]bool{}}
	rng := rand.New(rand.NewSource(1))
	hot := func() int64 { return int64(rng.Intn(3)) } // pages 0-2 take most writes

	var now sim.Time
	for step := 0; step < 3000; step++ {
		var ta, tb sim.Time
		var ea, eb error
		switch op := rng.Intn(10); {
		case op < 4: // partial write, possibly spanning two pages
			n := 1 + rng.Intn(ps)
			off := hot()*int64(ps) + int64(rng.Intn(ps))
			if off+int64(n) > size {
				n = int(size - off)
			}
			data := make([]byte, n)
			rng.Read(data)
			_, ta, ea = fa.WriteAt(now, data, off)
			tb, eb = writeCopying(fb, now, data, off)
			copy(shadow[off:], data)
		case op < 6: // full-page write
			off := hot() * int64(ps)
			if rng.Intn(4) == 0 {
				off = int64(rng.Intn(pages)) * int64(ps)
			}
			data := make([]byte, ps)
			rng.Read(data)
			_, ta, ea = fa.WriteAt(now, data, off)
			tb, eb = writeCopying(fb, now, data, off)
			copy(shadow[off:], data)
		case op < 8: // read, often of a cold page (LRU pressure)
			n := 1 + rng.Intn(2*ps)
			off := int64(rng.Intn(int(size) - n))
			ga, gb := make([]byte, n), make([]byte, n)
			_, ta, ea = fa.ReadAt(now, ga, off)
			_, tb, eb = fb.ReadAt(now, gb, off)
			if !bytes.Equal(ga, shadow[off:off+int64(n)]) || !bytes.Equal(gb, ga) {
				t.Fatalf("step %d: read [%d,+%d) differs from the shadow", step, off, n)
			}
		case op < 9: // evict everything without draining: writeback stays queued
			for _, v := range []*VFS{a, b} {
				if err := v.cache.Resize(0); err != nil {
					t.Fatal(err)
				}
				if err := v.cache.Resize(capacity); err != nil {
					t.Fatal(err)
				}
			}
			ta, tb = now, now
		default:
			ta, ea = fa.Sync(now)
			tb, eb = fb.Sync(now)
		}
		if ea != nil || eb != nil {
			t.Fatalf("step %d: errors %v / %v", step, ea, eb)
		}
		if ta != tb {
			t.Fatalf("step %d: done %v, copying rule %v", step, ta, tb)
		}
		ha, aa, ia, va := a.cache.Stats()
		hb, ab, ib, vb := b.cache.Stats()
		if ha != hb || aa != ab || ia != ib || va != vb {
			t.Fatalf("step %d: cache stats %d/%d/%d/%d, copying rule %d/%d/%d/%d",
				step, ha, aa, ia, va, hb, ab, ib, vb)
		}
		if !bytes.Equal(oracle(t, a, fa, 0, int(size)), oracle(t, b, fb, 0, int(size))) {
			t.Fatalf("step %d: flash contents differ from the copying rule's", step)
		}
		bufs.check(t, a, fa.inode.Ino, pages)
		now = ta
	}
	if _, err := fa.Sync(now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracle(t, a, fa, 0, int(size)), shadow) {
		t.Fatal("flash after the final sync differs from the shadow")
	}
}

// TestQueuedWritebackBufferUntouched evicts a dirty page without draining
// its writeback, then writes the page again, partially and in full. The
// queued bytes must land on flash as they were when queued; the new bytes
// must land in a different buffer.
func TestQueuedWritebackBufferUntouched(t *testing.T) {
	for _, full := range []bool{false, true} {
		v := testVFS(t, 8)
		f := createPreloaded(t, v, "f", 1<<16)
		first := bytes.Repeat([]byte{0x11}, 100)
		if _, _, err := f.WriteAt(0, first, 200); err != nil {
			t.Fatal(err)
		}
		if err := v.cache.Resize(0); err != nil {
			t.Fatal(err)
		}
		if len(v.pendingWB) != 1 {
			t.Fatalf("%d writebacks queued, want 1", len(v.pendingWB))
		}
		queued := v.pendingWB[0].data
		want := append([]byte(nil), queued...)
		if err := v.cache.Resize(8); err != nil {
			t.Fatal(err)
		}

		second, off := bytes.Repeat([]byte{0x22}, 50), int64(1000)
		if full {
			second, off = bytes.Repeat([]byte{0x33}, 4096), 0
		}
		if _, _, err := f.WriteAt(0, second, off); err != nil {
			t.Fatal(err)
		}
		if got := oracle(t, v, f, 0, 4096); !bytes.Equal(got, want) {
			t.Fatalf("full=%v: flash holds a queued buffer edited after it was queued", full)
		}
		dirty := v.cache.DirtyData(pagecache.Key{File: f.inode.Ino, Index: 0})
		if dirty == nil || &dirty[0] == &queued[0] {
			t.Fatalf("full=%v: the new write did not get a buffer of its own", full)
		}
		expect := append([]byte(nil), want...)
		copy(expect[off:], second)
		if !bytes.Equal(dirty, expect) {
			t.Fatalf("full=%v: dirty page content wrong", full)
		}
	}
}

// TestWritePathAllocFree pins the steady-state write and read paths at
// zero allocations: a partial write to a resident dirty page edits it in
// place, and a block-read miss reuses the fetch scratch, the recycled
// cache entries and the driver's completion slot.
func TestWritePathAllocFree(t *testing.T) {
	v := testVFS(t, 16)
	f := createPreloaded(t, v, "f", 1<<20)
	var now sim.Time
	rec := make([]byte, 200)
	var off int64
	write := func() {
		_, done, err := f.WriteAt(now, rec, 300+off%3000)
		if err != nil {
			t.Fatal(err)
		}
		now, off = done, off+211
	}
	write()
	if allocs := testing.AllocsPerRun(500, write); allocs != 0 {
		t.Errorf("partial write to a dirty page allocated %.2f times, want 0", allocs)
	}

	buf := make([]byte, 4096)
	var i int64
	read := func() {
		// Stride 37 over 256 pages with a 16-page cache: every read misses.
		_, done, err := f.ReadAt(now, buf, (i*37%256)*4096)
		if err != nil {
			t.Fatal(err)
		}
		now, i = done, i+1
	}
	for w := 0; w < 512; w++ {
		read()
	}
	h0, a0, _, _ := v.cache.Stats()
	if allocs := testing.AllocsPerRun(500, read); allocs != 0 {
		t.Errorf("block-read miss allocated %.2f times, want 0", allocs)
	}
	if h1, a1, _, _ := v.cache.Stats(); a1-a0 == 0 || h1-h0 != 0 {
		t.Errorf("reads under test were not all misses: %d hits in %d accesses", h1-h0, a1-a0)
	}
}

// TestPeekSeesUnflushedWrites: File.Peek returns what a read would, with
// written bytes the device does not hold yet laid over its content, from a
// resident dirty page and then from the writeback queue, and it counts no
// cache access and moves no traffic.
func TestPeekSeesUnflushedWrites(t *testing.T) {
	v := testVFS(t, 8)
	f := createPreloaded(t, v, "f", 1<<16)
	want := oracle(t, v, f, 0, 3*4096)
	for _, w := range []struct {
		off  int64
		data []byte
	}{
		{200, bytes.Repeat([]byte{0x11}, 100)},
		{4096 + 1000, bytes.Repeat([]byte{0x22}, 4000)}, // spans pages 1 and 2
	} {
		if _, _, err := f.WriteAt(0, w.data, w.off); err != nil {
			t.Fatal(err)
		}
		copy(want[w.off:], w.data)
	}
	check := func(state string) {
		t.Helper()
		h, a, ins, ev := v.cache.Stats()
		io := v.IO()
		for _, r := range []struct{ off, n int64 }{{0, 3 * 4096}, {150, 200}, {4090, 4100}, {8192, 4096}} {
			got := make([]byte, r.n)
			if err := f.Peek(r.off, got); err != nil {
				t.Fatalf("%s: Peek [%d,+%d): %v", state, r.off, r.n, err)
			}
			if !bytes.Equal(got, want[r.off:r.off+r.n]) {
				t.Fatalf("%s: Peek [%d,+%d) differs from the written file", state, r.off, r.n)
			}
		}
		if h2, a2, ins2, ev2 := v.cache.Stats(); h2 != h || a2 != a || ins2 != ins || ev2 != ev || v.IO() != io {
			t.Fatalf("%s: Peek moved the cache counters or the traffic", state)
		}
	}
	check("dirty in the page cache")
	if err := v.cache.Resize(0); err != nil {
		t.Fatal(err)
	}
	if len(v.pendingWB) != 3 {
		t.Fatalf("%d writebacks queued, want 3", len(v.pendingWB))
	}
	check("queued for writeback")
	if _, err := v.drainWriteback(0); err != nil {
		t.Fatal(err)
	}
	check("on the device")
	if err := f.Peek(1<<16-10, make([]byte, 11)); err == nil {
		t.Fatal("Peek past the end of the file accepted")
	}
}

// TestPeekReadsHolesAsZeros checks both oracles against a timed read on a
// file created without preload: its pages are holes, which ReadAt returns
// as zeros, and File.Peek and extfs.FS.Peek must return the same bytes.
func TestPeekReadsHolesAsZeros(t *testing.T) {
	v := testVFS(t, 8)
	f, err := v.Create("sparse", 1<<16, extfs.CreateOpts{}, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if _, _, err := f.ReadAt(0, got, 4096); err != nil {
		t.Fatal(err)
	}
	for name, peek := range map[string]func([]byte) error{
		"File.Peek": func(b []byte) error { return f.Peek(4096, b) },
		"FS.Peek":   func(b []byte) error { return v.FS().Peek(f.Inode(), 4096, b) },
	} {
		want := bytes.Repeat([]byte{0xff}, 128)
		if err := peek(want); err != nil {
			t.Fatalf("%s of a hole: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s of a hole differs from ReadAt", name)
		}
	}
}
