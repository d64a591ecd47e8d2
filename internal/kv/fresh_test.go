package kv

import (
	"bytes"
	"fmt"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// TestPutsIntoFreshStoreReadNothing appends records into a fresh store for
// every engine, block and fine: the store's files start unwritten, so an
// append that begins a new page fills it without reading flash, and while
// every page stays cached no Put reads the device at all.
func TestPutsIntoFreshStoreReadNothing(t *testing.T) {
	t.Parallel()
	const puts = 400 // about 25 KiB of records: the log rotates once
	for _, kind := range index.Kinds() {
		for _, fine := range []bool{false, true} {
			be, p := testStack(t, fine)
			s := testStore(t, be, engineTestConfig(kind, fine))
			blockBefore := be.(VFSBackend).V.IO().BlockReads
			var fineBefore uint64
			if p != nil {
				fineBefore = p.IO().FineReads
			}
			now := sim.Time(0)
			var err error
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("fresh-%04d", i)
				if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if s.Stats().Rotations == 0 {
				t.Fatalf("%s/fine=%v: no segment rotated", kind, fine)
			}
			if got := be.(VFSBackend).V.IO().BlockReads - blockBefore; got != 0 {
				t.Errorf("%s/fine=%v: %d puts issued %d block reads", kind, fine, puts, got)
			}
			if p != nil {
				if got := p.IO().FineReads - fineBefore; got != 0 {
					t.Errorf("%s/fine=%v: %d puts issued %d fine reads", kind, fine, puts, got)
				}
			}
		}
	}
}

// TestReusedSegmentScansEmpty compacts a segment away and creates the next
// segment on the LBAs it freed. The filesystem trimmed them, so the new
// segment reads as zeros and a reopened store recovers nothing from it: no
// record of the removed segment leaks through the reuse.
func TestReusedSegmentScansEmpty(t *testing.T) {
	t.Parallel()
	for _, fine := range []bool{false, true} {
		be := testBackend(t, fine)
		cfg := Config{SegmentBytes: 16 << 10, FineReads: fine}
		s := testStore(t, be, cfg)
		fs := be.(VFSBackend).V.FS()
		now := sim.Time(0)
		var err error
		model := map[string][]byte{}
		for v := 0; s.pickVictim() == nil; v++ {
			key := fmt.Sprintf("reuse-%02d", v%20)
			model[key] = testVal(key, v)
			if now, err = s.Put(now, key, model[key]); err != nil {
				t.Fatal(err)
			}
		}
		ino, err := fs.Lookup(s.pickVictim().name)
		if err != nil {
			t.Fatal(err)
		}
		freed := ino.Extents[0].LBA
		if _, now, err = s.MaintenanceTick(now); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Compactions != 1 {
			t.Fatalf("fine=%v: %d compactions, want 1", fine, s.Stats().Compactions)
		}
		if now, err = s.rotate(now); err != nil {
			t.Fatal(err)
		}
		fresh := s.active
		if ino, err = fs.Lookup(fresh.name); err != nil {
			t.Fatal(err)
		}
		if ino.Extents[0].LBA != freed {
			t.Fatalf("fine=%v: new segment starts at LBA %d, not on the freed LBA %d",
				fine, ino.Extents[0].LBA, freed)
		}
		raw, err := be.OpenReader(fresh.name, false)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, cfg.SegmentBytes)
		if _, now, err = raw.ReadAt(now, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("fine=%v: segment on reused LBAs does not read as zeros", fine)
		}
		if _, err := s.Close(now); err != nil {
			t.Fatal(err)
		}

		s2, now, err := Open(0, be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tail := s2.segs[fresh.id].tail; tail != 0 {
			t.Fatalf("fine=%v: segment on reused LBAs recovered %d bytes of records", fine, tail)
		}
		if st := s2.Stats(); st.CorruptSkips != 0 {
			t.Fatalf("fine=%v: recovery skipped %d damaged runs", fine, st.CorruptSkips)
		}
		if s2.Len() != len(model) {
			t.Fatalf("fine=%v: reopened store holds %d keys, want %d", fine, s2.Len(), len(model))
		}
		for key, want := range model {
			got, done, err := s2.Get(now, key, nil)
			if err != nil {
				t.Fatalf("fine=%v: Get(%s): %v", fine, key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fine=%v: Get(%s) = %q, want %q", fine, key, got, want)
			}
			now = done
		}
	}
}
