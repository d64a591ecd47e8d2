package kv

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/core"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
	"pipette/internal/vfs"
)

// watchedBackend hands out direct handles that check the stack after
// every read they serve.
type watchedBackend struct {
	VFSBackend
	after func(n int, off int64)
}

func (b watchedBackend) OpenDirect(name string) (BackendFile, error) {
	f, err := b.VFSBackend.OpenDirect(name)
	return watchedFile{BackendFile: f, after: b.after}, err
}

type watchedFile struct {
	BackendFile
	after func(n int, off int64)
}

func (f watchedFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	n, done, err := f.BackendFile.ReadAt(now, buf, off)
	f.after(len(buf), off)
	return n, done, err
}

// TestCompactionReadsVictimOnce: a compaction of a fine-read store asks
// for each byte of its victim exactly once, in reads that start where the
// last one stopped, and neither the fine cache nor the page cache gains
// an entry from them; every live record still moves.
func TestCompactionReadsVictimOnce(t *testing.T) {
	t.Parallel()
	vbe, p := testStack(t, true)
	v := vbe.(VFSBackend).V
	var sg *segment
	var next int64
	var before core.Stats
	// resident counts the victim's pages in the page cache.
	resident := func() int {
		n, ino := 0, sg.r.(*vfs.File).Inode().Ino
		for pg := uint64(0); pg < uint64(sg.r.Size()/4096); pg++ {
			if v.PageCache().Contains(pagecache.Key{File: ino, Index: pg}) {
				n++
			}
		}
		return n
	}
	var residentBefore int
	be := watchedBackend{VFSBackend: vbe.(VFSBackend)}
	be.after = func(n int, off int64) {
		if off != next {
			t.Errorf("a compaction read starts at %d, the last one stopped at %d", off, next)
		}
		next = off + int64(n)
		if st := p.Stats(); st.Admissions != before.Admissions {
			t.Errorf("the fine cache admitted %d items during the compaction", st.Admissions-before.Admissions)
		}
		if got := resident(); got != residentBefore {
			t.Errorf("%d pages of the victim resident during the compaction, %d before", got, residentBefore)
		}
	}
	s := testStore(t, be, Config{SegmentBytes: 256 << 10, FineReads: true})
	now := sim.Time(0)
	var err error
	// Two passes over 1000 keys of about 300 B. The first also writes a
	// cold key every fourth, and fills more than a segment; the second
	// leaves that segment mostly dead. Then gets warm both caches.
	hot := func(key string, pass int) []byte {
		return append(testVal(key, pass), bytes.Repeat([]byte{'h'}, 250)...)
	}
	cold := bytes.Repeat([]byte{'c'}, 200)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("key-%04d", i)
			if now, err = s.Put(now, key, hot(key, pass)); err != nil {
				t.Fatal(err)
			}
			if pass == 0 && i%4 == 0 {
				if now, err = s.Put(now, fmt.Sprintf("cold-%04d", i), cold); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 1000; i += 3 {
			if _, now, err = s.Get(now, fmt.Sprintf("key-%04d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sg = s.pickVictim(); sg == nil {
		t.Fatal("setup: no segment to compact")
	}
	if p.Stats().Admissions == 0 {
		t.Fatal("setup: the fine cache admitted nothing")
	}
	before, residentBefore = p.Stats(), resident()
	io0 := v.IO()
	moved0 := s.Stats().MovedBytes
	if ran, done, err := s.MaintenanceTick(now); err != nil || !ran {
		t.Fatalf("MaintenanceTick: ran=%v err=%v", ran, err)
	} else {
		now = done
	}
	if st := p.Stats(); st.Admissions != before.Admissions {
		t.Errorf("the fine cache admitted %d items during the compaction", st.Admissions-before.Admissions)
	}
	if got := v.IO().BytesRequested - io0.BytesRequested; got != uint64(sg.tail) {
		t.Errorf("the compaction requested %d bytes, want the victim's tail %d", got, sg.tail)
	}
	if next != sg.tail {
		t.Errorf("the compaction read up to %d, want %d", next, sg.tail)
	}
	if sg.tail <= compactWindow || s.Stats().MovedBytes == moved0 {
		t.Errorf("setup: the victim's %d bytes fit one read, or the compaction moved no record", sg.tail)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if got, _, err := s.Get(now, key, nil); err != nil || !bytes.Equal(got, hot(key, 1)) {
			t.Fatalf("Get(%s) = %q, %v after the compaction", key, got, err)
		}
		if i%4 != 0 {
			continue
		}
		key = fmt.Sprintf("cold-%04d", i)
		if got, _, err := s.Get(now, key, nil); err != nil || !bytes.Equal(got, cold) {
			t.Fatalf("Get(%s) = %q, %v after the compaction", key, got, err)
		}
	}
}
