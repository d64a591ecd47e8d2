package core

import (
	"bytes"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/pagecache"
	"pipette/internal/vfs"
)

// createFresh adds a file that starts unwritten (no preload) to the stack.
func createFresh(t *testing.T, s *stack, name string, size int64) *vfs.File {
	t.Helper()
	f, err := s.v.Create(name, size, extfs.CreateOpts{}, vfs.ReadWrite|vfs.FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// devReads counts the read commands the device has executed.
func devReads(s *stack) (block, fine uint64) {
	st := s.ctrl.Stats()
	return st.BlockReadCmds, st.FineReadCmds
}

// TestFineReadOfHole reads 100 B of a page the file never wrote: the bytes
// are zeros, no read command reaches the device, and the request costs only
// the syscall and the copy-out, as a hole does on the block path.
func TestFineReadOfHole(t *testing.T) {
	s := newStack(t, smallCoreConfig(), 64, 1<<20)
	f := createFresh(t, s, "fresh", 64<<10)
	for _, off := range []int64{5000, 4096 - 50} { // within a page, across two
		b0, f0 := devReads(s)
		buf := bytes.Repeat([]byte{0xAA}, 100)
		done, err := f.ReadFull(s.now, buf, off)
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		if !bytes.Equal(buf, make([]byte, 100)) {
			t.Fatalf("off %d: hole read %x, want zeros", off, buf)
		}
		if b1, f1 := devReads(s); b1 != b0 || f1 != f0 {
			t.Fatalf("off %d: hole read sent %d block and %d fine commands", off, b1-b0, f1-f0)
		}
		if want := s.now + vfs.SyscallOverhead + vfs.CopyOverhead; done != want {
			t.Fatalf("off %d: hole read done at %v, want %v", off, done, want)
		}
		s.now = done
	}
	if got := s.p.Stats().Holes; got != 2 {
		t.Fatalf("Holes = %d, want 2", got)
	}
	if got := s.p.IO().FineReads; got != 0 {
		t.Fatalf("fine path counted %d device reads", got)
	}
}

// TestFineReadStraddlingHole reads a range whose first page the file never
// wrote and whose second page is on flash and not cached: the hole part
// reads as zeros and the rest as the written bytes.
func TestFineReadStraddlingHole(t *testing.T) {
	const pcPages = 8
	s := newStack(t, smallCoreConfig(), pcPages, 1<<20)
	f := createFresh(t, s, "fresh", 64<<10)
	page := bytes.Repeat([]byte{0x5C}, 4096)
	_, done, err := f.WriteAt(s.now, page, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.now, err = f.Sync(done); err != nil {
		t.Fatal(err)
	}
	// Block reads of the preloaded file push the written page out of the
	// page cache, so the straddling read must fetch it from flash.
	for i := int64(0); i < 4*pcPages; i++ {
		s.read(t, i*4096, 4096)
	}
	if s.v.PageCache().Contains(pagecache.Key{File: f.Inode().Ino, Index: 1}) {
		t.Fatal("written page still cached")
	}
	b0, f0 := devReads(s)
	buf := make([]byte, 200)
	if s.now, err = f.ReadFull(s.now, buf, 4096-100); err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 100), page[:100]...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("straddling read %x, want %x", buf, want)
	}
	if b1, f1 := devReads(s); b1 != b0+1 || f1 != f0 {
		t.Fatalf("straddling read sent %d block and %d fine commands, want 1 and 0", b1-b0, f1-f0)
	}
}

// TestFineReadOfQueuedWriteback writes a fresh page, evicts it without
// draining its writeback, and reads it through the fine path. The page is
// unmapped until the queued writeback lands, so the fine path must drain
// before it checks for holes: the read returns the written bytes through a
// fine command, not zeros and not a decline.
func TestFineReadOfQueuedWriteback(t *testing.T) {
	s := newStack(t, smallCoreConfig(), 64, 1<<20)
	f := createFresh(t, s, "fresh", 64<<10)
	data := bytes.Repeat([]byte{0x77}, 100)
	_, done, err := f.WriteAt(s.now, data, 2*4096+300)
	if err != nil {
		t.Fatal(err)
	}
	s.now = done
	pc := s.v.PageCache()
	capacity := pc.Capacity()
	if err := pc.Resize(0); err != nil {
		t.Fatal(err)
	}
	if err := pc.Resize(capacity); err != nil {
		t.Fatal(err)
	}
	if s.ctrl.Written(lbaOf(t, f, 2)) {
		t.Fatal("evicted page reached flash before the read")
	}
	b0, f0 := devReads(s)
	buf := make([]byte, 100)
	if s.now, err = f.ReadFull(s.now, buf, 2*4096+300); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %x of a page queued for writeback, want %x", buf, data)
	}
	if b1, f1 := devReads(s); b1 != b0 || f1 != f0+1 {
		t.Fatalf("read sent %d block and %d fine commands, want 0 and 1", b1-b0, f1-f0)
	}
	if got := s.p.Stats().Holes; got != 0 {
		t.Fatalf("Holes = %d, want 0", got)
	}
}

func lbaOf(t *testing.T, f *vfs.File, page uint64) uint64 {
	t.Helper()
	lba, err := f.Inode().PageToLBA(page)
	if err != nil {
		t.Fatal(err)
	}
	return lba
}
