package kv

import (
	"fmt"
	"testing"

	"pipette/internal/sim"
)

// BenchmarkCompact times compacting one sealed segment: the log is
// overwritten (untimed) until a segment passes the dead-fraction
// threshold, then the timed MaintenanceTick verifies its records and moves
// the live ones.
func BenchmarkCompact(b *testing.B) {
	be := testBackend(b, false)
	s := testStore(b, be, Config{SegmentBytes: 64 << 10})
	now := sim.Time(0)
	var err error
	val := make([]byte, 200)
	keys := make([]string, 400)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	step := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s.pickVictim() == nil {
			// Round robin over more keys than a segment holds: a segment
			// passes the threshold with half its records still live.
			if now, err = s.Put(now, keys[step%len(keys)], val); err != nil {
				b.Fatal(err)
			}
			step++
		}
		moved := s.Stats().MovedBytes
		b.StartTimer()
		if _, now, err = s.MaintenanceTick(now); err != nil {
			b.Fatal(err)
		}
		if i == 0 && s.Stats().MovedBytes == moved {
			b.Fatal("compaction moved no live record")
		}
	}
}
