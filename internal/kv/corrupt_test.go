package kv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pipette/internal/sim"
)

// flipBit reads one byte of a sealed segment, flips one bit, and writes it
// back — an in-place corruption like a mid-segment media bit flip.
func flipBit(t *testing.T, be Backend, name string, off int64, bit uint) {
	t.Helper()
	now := sim.Time(0)
	r, err := be.OpenReader(name, false)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, now, err = r.ReadAt(now, b, off); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << bit
	w, err := be.OpenWriter(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = w.WriteAt(now, b, off); err != nil {
		t.Fatal(err)
	}
	if _, err = w.Sync(now); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverySkipsBitFlippedRecord flips a single bit in every field of a
// mid-segment record in turn, and asserts that recovery skips exactly the
// damaged record: every other key survives, the skip counters account the
// damage, and the store keeps working.
func TestRecoverySkipsBitFlippedRecord(t *testing.T) {
	t.Parallel()
	const victim = 5 // record index 5 of 10: damage sits mid-segment
	cases := []struct {
		field string
		off   int64 // within the record
		bit   uint
	}{
		{"magic", 0, 3},
		{"flags", 1, 6},  // unknown flag bit: header parse rejects
		{"keylen", 2, 2}, // perceived record size changes
		{"vallen", 4, 0}, // checksum read over wrong payload
		{"checksum", 8, 7},
		{"payload", headerSize + 2, 5}, // a key byte: checksum mismatch
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.field, func(t *testing.T) {
			t.Parallel()
			be := testBackend(t, false)
			cfg := Config{}
			s := testStore(t, be, cfg)
			now := sim.Time(0)
			var err error
			offs := make([]int64, 0, 10)
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("m-%d", i)
				offs = append(offs, s.active.tail)
				if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
					t.Fatal(err)
				}
			}
			recSz := offs[victim+1] - offs[victim]
			segName := s.active.name
			if now, err = s.Close(now); err != nil {
				t.Fatal(err)
			}

			flipBit(t, be, segName, offs[victim]+tc.off, tc.bit)

			s2, now, err := Open(now, be, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if s2.Len() != 9 {
				t.Fatalf("Len = %d, want 9 (exactly the damaged record lost)", s2.Len())
			}
			if _, _, err := s2.Get(now, fmt.Sprintf("m-%d", victim), nil); err != ErrNotFound {
				t.Fatalf("damaged record served: %v", err)
			}
			for i := 0; i < 10; i++ {
				if i == victim {
					continue
				}
				key := fmt.Sprintf("m-%d", i)
				got, _, err := s2.Get(now, key, nil)
				if err != nil {
					t.Fatalf("Get(%s) lost to mid-segment corruption: %v", key, err)
				}
				if !bytes.Equal(got, testVal(key, 0)) {
					t.Fatalf("Get(%s) = %q, want original value", key, got)
				}
			}
			st := s2.Stats()
			if st.CorruptSkips != 1 {
				t.Fatalf("CorruptSkips = %d, want 1", st.CorruptSkips)
			}
			if st.SkippedBytes != uint64(recSz) {
				t.Fatalf("SkippedBytes = %d, want %d (one record)", st.SkippedBytes, recSz)
			}
			if st.Recovered != 9 {
				t.Fatalf("Recovered = %d, want 9", st.Recovered)
			}

			// Appends resume after the last valid record and the store
			// keeps working, including re-inserting the lost key.
			key := fmt.Sprintf("m-%d", victim)
			if now, err = s2.Put(now, key, testVal(key, 1)); err != nil {
				t.Fatal(err)
			}
			got, _, err := s2.Get(now, key, nil)
			if err != nil || !bytes.Equal(got, testVal(key, 1)) {
				t.Fatalf("Get(%s) after re-insert = %q, %v", key, got, err)
			}
		})
	}
}

// TestRecoverySkipsConsecutiveDamage flips bits in two adjacent records:
// the scan must resynchronize past both and keep the rest.
func TestRecoverySkipsConsecutiveDamage(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	offs := make([]int64, 0, 10)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("d-%d", i)
		offs = append(offs, s.active.tail)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	segName := s.active.name
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}
	flipBit(t, be, segName, offs[3], 0)            // record 3: magic
	flipBit(t, be, segName, offs[4]+headerSize, 1) // record 4: payload

	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s2.Len())
	}
	// Adjacent damage coalesces into one resynchronization: the scan jumps
	// straight from the first bad record to the next valid one.
	st := s2.Stats()
	if st.CorruptSkips != 1 {
		t.Fatalf("CorruptSkips = %d, want 1 (one skip region)", st.CorruptSkips)
	}
	if st.SkippedBytes != uint64(offs[5]-offs[3]) {
		t.Fatalf("SkippedBytes = %d, want %d", st.SkippedBytes, offs[5]-offs[3])
	}
	for _, i := range []int{0, 1, 2, 5, 6, 7, 8, 9} {
		key := fmt.Sprintf("d-%d", i)
		if _, _, err := s2.Get(now, key, nil); err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
	}
}

// TestCompactionRefusesDamagedRecord flips a value bit of a live record in
// a sealed segment and then compacts that segment. Compaction must verify
// the record instead of re-appending it under a fresh checksum: it fails
// naming the segment and offset, keeps the segment, and a reopen skips the
// damaged record rather than serving its bytes.
func TestCompactionRefusesDamagedRecord(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := Config{SegmentBytes: 4 << 10}
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	const victim = "cold-key" // written once, so no older version exists
	if now, err = s.Put(now, victim, testVal(victim, 0)); err != nil {
		t.Fatal(err)
	}
	// Overwrite a hot set until the victim's segment is sealed and mostly
	// dead.
	first := s.active
	for round := 0; s.active == first || round < 4; round++ {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("hot-%d", i)
			if now, err = s.Put(now, key, testVal(key, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := s.locs[s.acct[victim]]
	if l.Seg != first.id {
		t.Fatalf("victim in segment %d, want %d", l.Seg, first.id)
	}
	damaged := l.Off + valueOffset(victim) + 3
	flipBit(t, be, first.name, damaged, 2)

	for i := 0; i < 20; i++ {
		var did bool
		did, now, err = s.MaintenanceTick(now)
		if err != nil || !did {
			break
		}
	}
	if err == nil {
		t.Fatal("compaction moved a damaged record without complaint")
	}
	want := fmt.Sprintf("segment %s corrupt at offset %d", first.name, l.Off)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("compaction error %q does not name %q", err, want)
	}
	if _, ok := s.segs[first.id]; !ok {
		t.Fatal("the damaged segment was dropped")
	}
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}

	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.CorruptSkips != 1 {
		t.Fatalf("CorruptSkips = %d, want 1: recovery must still see the damage", st.CorruptSkips)
	}
	if got, _, err := s2.Get(now, victim, nil); err != ErrNotFound {
		t.Fatalf("Get(%s) = %q, %v; want ErrNotFound", victim, got, err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("hot-%d", i)
		if _, _, err := s2.Get(now, key, nil); err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
	}
}
