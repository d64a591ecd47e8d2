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
// record under the key string the store already holds and reads into the
// store's record scratch, so four times the live records cost at most one
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
