package kv

import (
	"bytes"
	"fmt"
	"slices"
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

// ioEvent is one call a loggedBackend saw: a write or sync on a write
// handle, or a remove, of the named file.
type ioEvent struct {
	op, name string
}

// ioLog collects what a loggedBackend's handles were asked to do.
type ioLog struct {
	events []ioEvent
	reads  int // ReadAt calls on read and direct handles
}

// loggedBackend logs the writes and syncs of its write handles and its
// removes, and counts the reads of its other handles.
type loggedBackend struct {
	VFSBackend
	log *ioLog
}

type loggedFile struct {
	BackendFile
	name string
	log  *ioLog
}

func (b loggedBackend) Create(name string, size int64) (BackendFile, error) {
	f, err := b.VFSBackend.Create(name, size)
	return loggedFile{BackendFile: f, name: name, log: b.log}, err
}

func (b loggedBackend) OpenWriter(name string) (BackendFile, error) {
	f, err := b.VFSBackend.OpenWriter(name)
	return loggedFile{BackendFile: f, name: name, log: b.log}, err
}

func (b loggedBackend) OpenReader(name string, fine bool) (BackendFile, error) {
	f, err := b.VFSBackend.OpenReader(name, fine)
	return loggedFile{BackendFile: f, name: name, log: b.log}, err
}

func (b loggedBackend) OpenDirect(name string) (BackendFile, error) {
	f, err := b.VFSBackend.OpenDirect(name)
	return loggedFile{BackendFile: f, name: name, log: b.log}, err
}

func (b loggedBackend) Remove(name string) error {
	b.log.events = append(b.log.events, ioEvent{"remove", name})
	return b.VFSBackend.Remove(name)
}

func (f loggedFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	f.log.reads++
	return f.BackendFile.ReadAt(now, buf, off)
}

func (f loggedFile) WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	f.log.events = append(f.log.events, ioEvent{"write", f.name})
	return f.BackendFile.WriteAt(now, data, off)
}

func (f loggedFile) Sync(now sim.Time) (sim.Time, error) {
	f.log.events = append(f.log.events, ioEvent{"sync", f.name})
	return f.BackendFile.Sync(now)
}

// compactionSetup fills a store whose first segment holds cold records
// (written once) among hot ones (overwritten), until that segment is ready
// to compact and the active segment has less room left than the cold
// records it will receive, so the compaction's moves rotate the log.
func compactionSetup(t *testing.T, be Backend, segBytes int64, cold, valLen int) (*Store, *segment, sim.Time) {
	t.Helper()
	s := testStore(t, be, Config{SegmentBytes: segBytes})
	now := sim.Time(0)
	var err error
	val := bytes.Repeat([]byte{'v'}, valLen)
	for i := 0; i < cold; i++ {
		if now, err = s.Put(now, fmt.Sprintf("cold-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	first := s.active
	for i := 0; ; i++ {
		if i > 100_000 {
			t.Fatal("setup: the first segment never became the victim")
		}
		if v := s.pickVictim(); v == first && segBytes-s.active.tail < v.live {
			return s, v, now
		}
		if now, err = s.Put(now, fmt.Sprintf("hot-%02d", i%20), val); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionSyncsBeforeRemove: the records a compaction moves are
// durable before its victim is removed. Every write handle that received
// a moved record is synced after its last write and before the victim's
// remove: the segment the moves sealed by rotate, the active one by the
// compaction itself.
func TestCompactionSyncsBeforeRemove(t *testing.T) {
	t.Parallel()
	log := &ioLog{}
	be := loggedBackend{VFSBackend: testBackend(t, false).(VFSBackend), log: log}
	s, victim, now := compactionSetup(t, be, 16<<10, 30, 200)
	rot := s.Stats().Rotations
	log.events = nil
	if ran, _, err := s.MaintenanceTick(now); err != nil || !ran {
		t.Fatalf("MaintenanceTick: ran=%v err=%v", ran, err)
	}
	if s.Stats().Rotations == rot || s.Stats().MovedBytes == 0 {
		t.Fatal("setup: the compaction moved nothing or did not rotate the log")
	}
	removed := slices.Index(log.events, ioEvent{"remove", victim.name})
	if removed < 0 {
		t.Fatalf("the victim %s was not removed: %v", victim.name, log.events)
	}
	last := map[string]string{} // each file's last write or sync before the remove
	for _, e := range log.events[:removed] {
		last[e.name] = e.op
	}
	if len(last) < 2 {
		t.Fatalf("setup: the moves reached %d segments, want 2: %v", len(last), log.events)
	}
	for name, op := range last {
		if op != "sync" {
			t.Errorf("%s was written after its last sync, then the victim was removed: ... %v",
				name, log.events[max(0, removed-3):removed+1])
		}
	}
}

// TestCompactionAppendsInBulk: a compaction gathers the records it moves
// and appends them compactWindow bytes at a time, so it issues at most
// ⌈moved bytes / compactWindow⌉ appends, plus one per segment its moves
// rotate into, not one per record.
func TestCompactionAppendsInBulk(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	v := be.(VFSBackend).V
	s, _, now := compactionSetup(t, be, 512<<10, 800, 300)
	st0, writes0 := s.Stats(), v.IO().Writes
	if ran, _, err := s.MaintenanceTick(now); err != nil || !ran {
		t.Fatalf("MaintenanceTick: ran=%v err=%v", ran, err)
	}
	st := s.Stats()
	moved, rotations := st.BytesWritten-st0.BytesWritten, st.Rotations-st0.Rotations
	appends := v.IO().Writes - writes0
	t.Logf("moved %d bytes in %d appends, %d rotations", moved, appends, rotations)
	if moved <= compactWindow || rotations == 0 {
		t.Fatalf("setup: the compaction moved %d bytes and rotated %d times; want more than %d and some",
			moved, rotations, compactWindow)
	}
	if limit := (moved+compactWindow-1)/compactWindow + rotations; appends > limit {
		t.Errorf("the compaction appended %d times, want at most %d", appends, limit)
	}
	for i := 0; i < 800; i++ {
		key := fmt.Sprintf("cold-%05d", i)
		if got, _, err := s.Get(now, key, nil); err != nil || len(got) != 300 {
			t.Fatalf("Get(%s) = %d bytes, %v after the compaction", key, len(got), err)
		}
	}
}
