package kv

import (
	"fmt"
	"runtime"
	"testing"

	"pipette/internal/sim"
)

// compactAllocs counts the heap allocations of compacting one sealed
// segment that holds n live records beside n dead ones, and the pages of
// log the compaction wrote.
func compactAllocs(t *testing.T, n int) (allocs uint64, pages int) {
	val := make([]byte, 48)
	live := make([]string, n)
	dead := make([]string, n)
	for i := range live {
		live[i], dead[i] = fmt.Sprintf("live-%06d", i), fmt.Sprintf("dead-%06d", i)
	}
	// The first segment holds exactly the 2n records; the overwrites of
	// the dead half, then the n moved records, fill the second.
	rec := recordSize(len(live[0]), len(val))
	s := testStore(t, testBackend(t, false), Config{SegmentBytes: 2 * int64(n) * rec})
	now := sim.Time(0)
	var err error
	for _, keys := range [][]string{live, dead, dead} {
		for _, k := range keys {
			if now, err = s.Put(now, k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.pickVictim() == nil {
		t.Fatal("setup: no segment is ready to compact")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ran, _, err := s.MaintenanceTick(now)
	runtime.ReadMemStats(&after)
	if err != nil || !ran {
		t.Fatalf("compaction of %d live records: ran=%v err=%v", n, ran, err)
	}
	moved := s.Stats().MovedBytes
	if want := uint64(n) * uint64(rec); moved != want {
		t.Fatalf("compaction moved %d bytes, want %d", moved, want)
	}
	return after.Mallocs - before.Mallocs, int(moved) / 4096
}

// TestCompactAllocsIndependentOfRecords: compaction re-inserts each moved
// record under the key string the store already holds, reads through the
// log reader's window and gathers the moves in the store's moving scratch,
// so four times the live records cost at most one
// more allocation per extra page of log written, plus a constant, not one
// or more per record. What remains grows with the bytes moved: the flash
// store and its free list grow by doubling as the larger segments are
// written and dropped, and race-detector builds allocate as the page
// cache's slot table grows.
func TestCompactAllocsIndependentOfRecords(t *testing.T) {
	const n = 500
	a1, p1 := compactAllocs(t, n)
	a4, p4 := compactAllocs(t, 4*n)
	t.Logf("compacting %d live records: %d allocations; %d: %d", n, a1, 4*n, a4)
	extra := int64(a4) - int64(a1)
	if limit := int64(p4-p1) + 32; extra > limit {
		t.Errorf("compacting %d instead of %d live records took %d more allocations (%d vs %d); "+
			"%d more pages allow at most %d", 4*n, n, extra, a4, a1, p4-p1, limit)
	}
}

// raceEnabled is set in race-detector builds (race_test.go). There the
// allocation count of identical recoveries varies by a few: the detector
// makes sync.Pool, which fmt uses to format segment names, drop a random
// share of what is put back.
var raceEnabled bool

// recoverAllocs counts the heap allocations of reopening a store whose one
// segment holds 32 valid records with n damaged ones among them, each
// damaged record between two valid ones, so recovery resynchronizes n
// times. All records fit in the segment's first page.
func recoverAllocs(t *testing.T, n int) uint64 {
	const valid = 32
	cfg := Config{SegmentBytes: 64 << 10}
	be := testBackend(t, false)
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	var damaged []int64
	for i := 0; i < valid; i++ {
		key := fmt.Sprintf("k-%02d", i)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
		if i < n {
			damaged = append(damaged, s.active.tail)
			key := fmt.Sprintf("x-%02d", i)
			if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.active.tail > 4096 {
		t.Fatalf("setup: records end at %d, past the first page", s.active.tail)
	}
	name := s.active.name
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}
	for _, off := range damaged {
		flipBit(t, be, name, off, 3) // the magic byte
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, _, err := Open(now, be, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); s2.Len() != valid || st.CorruptSkips != uint64(n) {
		t.Fatalf("recovered %d records with %d skips, want %d and %d", s2.Len(), st.CorruptSkips, valid, n)
	}
	return after.Mallocs - before.Mallocs
}

// TestRecoveryResyncAllocFree: the scan past a damaged record reads
// through the log reader's window (the store's window buffer, kept across
// recovered segments), so recovering a segment with 31 damaged
// records allocates no more than with one; a chunk per scan would add 30.
// Each count is the least of three recoveries: the malloc counter is
// process-wide, so other goroutines and the first Open's package-level
// state only ever add to it. Race-detector builds get a small slack.
func TestRecoveryResyncAllocFree(t *testing.T) {
	least := func(n int) uint64 {
		return min(recoverAllocs(t, n), recoverAllocs(t, n), recoverAllocs(t, n))
	}
	a1, a31 := least(1), least(31)
	var slack uint64
	if raceEnabled {
		slack = 8
	}
	t.Logf("allocations: %d with 1 damaged record, %d with 31", a1, a31)
	if a31 > a1+slack {
		t.Errorf("recovery with 31 damaged records allocated %d times, with 1: %d; want at most %d more",
			a31, a1, slack)
	}
}
