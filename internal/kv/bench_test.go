package kv

import (
	"fmt"
	"testing"

	"pipette/internal/sim"
)

// BenchmarkCompact times compacting one sealed segment: the log is
// overwritten (untimed) until a segment passes the dead-fraction
// threshold, then the timed MaintenanceTick verifies its records and moves
// the live ones. It reports the virtual time of each compaction and the
// appends it issues.
func BenchmarkCompact(b *testing.B) {
	be := testBackend(b, false)
	v := be.(VFSBackend).V
	s := testStore(b, be, Config{SegmentBytes: 64 << 10})
	now := sim.Time(0)
	var err error
	val := make([]byte, 200)
	keys := make([]string, 400)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	step := 0
	var spent sim.Time
	var appends uint64
	b.ReportAllocs()
	b.ResetTimer()
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
		moved, writes := s.Stats().MovedBytes, v.IO().Writes
		b.StartTimer()
		done := now
		if _, done, err = s.MaintenanceTick(now); err != nil {
			b.Fatal(err)
		}
		spent, appends, now = spent+done-now, appends+v.IO().Writes-writes, done
		if i == 0 && s.Stats().MovedBytes == moved {
			b.Fatal("compaction moved no live record")
		}
	}
	b.ReportMetric(spent.Micros()/float64(b.N), "virtual-us/compaction")
	b.ReportMetric(float64(appends)/float64(b.N), "appends/compaction")
}

// BenchmarkPut appends 300 B values under distinct keys into a fresh store
// over the block path, starting a new store every putsPerStore puts
// (untimed), and reports the virtual time each Put takes and the device
// reads it issues. The store's files start unwritten, so an append that
// begins a new page reads nothing: reads/put is 0.
func BenchmarkPut(b *testing.B) {
	const putsPerStore = 4096 // about 1.3 MiB of log: segments rotate, pages are evicted and written back
	val := make([]byte, 300)
	keys := make([]string, putsPerStore)
	for i := range keys {
		keys[i] = fmt.Sprintf("put-%06d", i)
	}
	var (
		be    Backend
		s     *Store
		now   sim.Time
		spent sim.Time
		reads uint64
	)
	fresh := func() {
		if be != nil {
			reads += be.(VFSBackend).V.IO().BlockReads
		}
		be = testBackend(b, false)
		s = testStore(b, be, Config{SegmentBytes: 1 << 20})
		now = 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%putsPerStore == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		done, err := s.Put(now, keys[i%putsPerStore], val)
		if err != nil {
			b.Fatal(err)
		}
		spent += done - now
		now = done
	}
	reads += be.(VFSBackend).V.IO().BlockReads
	b.ReportMetric(spent.Micros()/float64(b.N), "virtual-us/put")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/put")
}

// BenchmarkRecover times reopening a store of 8,000 records of 200 B in
// two 1 MiB segments, fine reads on: the scan that rebuilds the index from
// the log. It reports the virtual time of each reopen.
func BenchmarkRecover(b *testing.B) {
	be := testBackend(b, true)
	cfg, now := recoverySetup(b, be, 8000, 200)
	var spent sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, done, err := Open(now, be, cfg)
		if err != nil {
			b.Fatal(err)
		}
		spent += done - now
		b.StopTimer()
		if now, err = s.Close(done); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(spent.Micros()/1000/float64(b.N), "virtual-ms/reopen")
}
