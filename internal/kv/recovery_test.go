package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"pipette/internal/sim"
)

// TestRestartRecovery closes a store and reopens it over the same backend:
// the index must be rebuilt purely from the segment files.
func TestRestartRecovery(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{SegmentBytes: 8 << 10}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error

	for v := 0; v < 3; v++ {
		for i := 0; i < 80; i++ {
			key := fmt.Sprintf("r-%03d", i)
			if now, err = s.Put(now, key, testVal(key, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 80; i += 4 {
		key := fmt.Sprintf("r-%03d", i)
		if now, err = s.Delete(now, key); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Segments()
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}

	s2, done, err := Open(now, be, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if done <= now {
		t.Fatal("recovery scan took no simulated time")
	}
	now = done
	if s2.Stats().Recovered == 0 {
		t.Fatal("no records recovered")
	}
	if s2.Segments() != segs {
		t.Fatalf("segments %d after recovery, want %d", s2.Segments(), segs)
	}
	if want := 80 - 20; s2.Len() != want {
		t.Fatalf("Len after recovery = %d, want %d", s2.Len(), want)
	}
	for i := 0; i < 80; i++ {
		key := fmt.Sprintf("r-%03d", i)
		got, _, err := s2.Get(now, key, nil)
		if i%4 == 0 {
			if err != ErrNotFound {
				t.Fatalf("deleted %s resurrected by recovery: %v", key, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s) after recovery: %v", key, err)
		}
		if !bytes.Equal(got, testVal(key, 2)) {
			t.Fatalf("Get(%s) = %q after recovery, want latest version", key, got)
		}
	}

	// The reopened store keeps working: appends resume into the last
	// segment and survive another restart.
	if now, err = s2.Put(now, "post-restart", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if now, err = s2.Close(now); err != nil {
		t.Fatal(err)
	}
	s3, done, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s3.Get(done, "post-restart", nil)
	if err != nil || !bytes.Equal(got, []byte("alive")) {
		t.Fatalf("Get(post-restart) = %q, %v", got, err)
	}
}

// TestRecoveryAfterCompaction restarts a store whose log has been compacted:
// removed segments must stay gone and the surviving records intact.
func TestRecoveryAfterCompaction(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{SegmentBytes: 8 << 10}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	for round := 0; round < 15; round++ {
		for i := 0; i < 25; i++ {
			key := fmt.Sprintf("c-%02d", i)
			if now, err = s.Put(now, key, testVal(key, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		did, done, err := s.MaintenanceTick(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !did {
			break
		}
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("setup: no compaction ran")
	}
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}

	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("c-%02d", i)
		got, _, err := s2.Get(now, key, nil)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got, testVal(key, 14)) {
			t.Fatalf("Get(%s) stale after compaction+restart", key)
		}
	}
}

// TestTornTailDetection corrupts the checksum of the last record; recovery
// must stop right before it and keep everything earlier.
func TestTornTailDetection(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	offs := make([]int64, 0, 10)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("t-%d", i)
		offs = append(offs, s.active.tail)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	segName := s.active.name
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}

	// Flip bits in the last record's checksum field, simulating a torn
	// append that made it to the device only partially.
	w, err := be.OpenWriter(segName)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, 4)
	binary.LittleEndian.PutUint32(bad, 0xdeadbeef)
	if _, now, err = w.WriteAt(now, bad, offs[9]+8); err != nil {
		t.Fatal(err)
	}
	if now, err = w.Sync(now); err != nil {
		t.Fatal(err)
	}
	if err = w.Close(); err != nil {
		t.Fatal(err)
	}

	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("Len = %d after torn tail, want 9", s2.Len())
	}
	if _, _, err := s2.Get(now, "t-9", nil); err != ErrNotFound {
		t.Fatalf("torn record served: %v", err)
	}
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("t-%d", i)
		if _, _, err := s2.Get(now, key, nil); err != nil {
			t.Fatalf("Get(%s) lost to torn tail: %v", key, err)
		}
	}
	// The torn bytes are overwritten by the next append (tail stopped
	// before them), so the store keeps working.
	if s2.active.tail != offs[9] {
		t.Fatalf("tail = %d, want %d (before torn record)", s2.active.tail, offs[9])
	}
	if _, err := s2.Put(now, "t-9", testVal("t-9", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestFreshSegmentScansEmpty checks recovery does not hallucinate records
// out of a never-written segment, whose pages are holes that read as zeros.
func TestFreshSegmentScansEmpty(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	s := testStore(t, be, Config{})
	if _, err := s.Close(0); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(0, be, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.Stats().Recovered != 0 {
		t.Fatalf("fresh segment recovered %d records, len %d", s2.Stats().Recovered, s2.Len())
	}
}

// recoverySetup writes n records of valLen-byte values into a store over
// be (fine reads on, 1 MiB segments) and closes it.
func recoverySetup(t testing.TB, be Backend, n, valLen int) (Config, sim.Time) {
	t.Helper()
	cfg := Config{SegmentBytes: 1 << 20, FineReads: true}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	val := bytes.Repeat([]byte{'r'}, valLen)
	for i := 0; i < n; i++ {
		if now, err = s.Put(now, fmt.Sprintf("rec-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}
	return cfg, now
}

// TestRecoveryReadsSegmentsInWindows: a reopen streams each segment
// through one direct handle in compactWindow reads, so 8,000 records of
// 200 B in two 1 MiB segments take at most 1 MiB / compactWindow reads
// per segment plus a constant, not two reads per record.
func TestRecoveryReadsSegmentsInWindows(t *testing.T) {
	t.Parallel()
	const records = 8000
	log := &ioLog{}
	be := loggedBackend{VFSBackend: testBackend(t, true).(VFSBackend), log: log}
	cfg, now := recoverySetup(t, be, records, 200)
	log.reads = 0
	s, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := int(s.Segments())
	if segs != 2 || s.Len() != records || s.Stats().Recovered != records {
		t.Fatalf("setup: reopened %d segments holding %d keys (%d recovered), want 2 and %d",
			segs, s.Len(), s.Stats().Recovered, records)
	}
	const perSegment = int(1<<20/compactWindow) + 2
	t.Logf("reopening %d records in %d segments took %d reads", records, segs, log.reads)
	if log.reads > segs*perSegment {
		t.Errorf("reopening %d records in %d segments took %d reads, want at most %d",
			records, segs, log.reads, segs*perSegment)
	}
	for i := 0; i < records; i += 997 {
		key := fmt.Sprintf("rec-%05d", i)
		if got, _, err := s.Get(now, key, nil); err != nil || len(got) != 200 {
			t.Fatalf("Get(%s) = %d bytes, %v after the reopen", key, len(got), err)
		}
	}
}

// badPageBackend fails every direct read that covers file offset bad.
type badPageBackend struct {
	VFSBackend
	bad int64
}

type badPageFile struct {
	BackendFile
	bad int64
}

var errBadPage = errors.New("unreadable page")

func (b badPageBackend) OpenDirect(name string) (BackendFile, error) {
	f, err := b.VFSBackend.OpenDirect(name)
	return badPageFile{BackendFile: f, bad: b.bad}, err
}

func (f badPageFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	if off <= f.bad && f.bad < off+int64(len(buf)) {
		return 0, now, errBadPage
	}
	return f.BackendFile.ReadAt(now, buf, off)
}

// TestRecoverySkipsUnreadablePage: a read error in a segment costs the
// records on the unreadable page and no others. Of 4,000 synced records in
// one segment, the direct handle fails every read covering one offset: 200
// KiB, mid-segment, or the last record's. The window holding it is re-read
// page by page, the failing page is charged as one skip region, and every
// record outside it is recovered.
func TestRecoverySkipsUnreadablePage(t *testing.T) {
	t.Parallel()
	const records = 4000
	sz := recordSize(len("rec-00000"), 200)
	for _, tc := range []struct {
		name string
		bad  int64
	}{
		{"mid", 200 << 10},
		{"tail", (records - 1) * sz},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			be := badPageBackend{VFSBackend: testBackend(t, true).(VFSBackend), bad: tc.bad}
			cfg, now := recoverySetup(t, be, records, 200)
			s, now, err := Open(now, be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps := int64(be.PageSize())
			lo, hi := tc.bad/ps*ps, tc.bad/ps*ps+ps
			kept := 0
			for i := 0; i < records; i++ {
				off := int64(i) * sz
				outside := off+sz <= lo || off >= hi
				key := fmt.Sprintf("rec-%05d", i)
				_, _, err := s.Get(now, key, nil)
				switch {
				case outside && err != nil:
					t.Errorf("%s at [%d,%d), outside the unreadable page: %v", key, off, off+sz, err)
				case !outside && !errors.Is(err, ErrNotFound):
					t.Errorf("%s at [%d,%d), on the unreadable page: err %v, want ErrNotFound", key, off, off+sz, err)
				}
				if outside {
					kept++
				}
			}
			st := s.Stats()
			if int(st.Recovered) != kept || s.Len() != kept {
				t.Errorf("recovered %d records, indexed %d; want the %d outside the unreadable page",
					st.Recovered, s.Len(), kept)
			}
			// The skip runs from the end of the last record before the page
			// to the start of the first one after it, or to the page's end
			// when none follows.
			stop := hi
			if next := (hi + sz - 1) / sz * sz; next < records*sz {
				stop = next
			}
			if want := uint64(stop - lo/sz*sz); st.CorruptSkips != 1 || st.SkippedBytes != want {
				t.Errorf("CorruptSkips %d, SkippedBytes %d; want 1 skip of %d bytes",
					st.CorruptSkips, st.SkippedBytes, want)
			}
		})
	}
}
