package telemetry

import (
	"testing"

	"pipette/internal/sim"
)

// BenchmarkNopSpan measures the cost of an instrumented call site when
// tracing is off: one interface call into the no-op tracer. This is the
// per-phase overhead every layer pays; it must stay in the
// single-nanosecond range so disabled tracing is free relative to the
// simulator's own work (see the system-level benchmark in the repo root).
func BenchmarkNopSpan(b *testing.B) {
	tr := Nop()
	for i := 0; i < b.N; i++ {
		tr.Span(TrackSSD, "read.nand", sim.Time(i), sim.Time(i+10))
	}
}

// BenchmarkRecorderSpan measures the recording path for comparison.
func BenchmarkRecorderSpan(b *testing.B) {
	r := NewRecorder()
	for i := 0; i < b.N; i++ {
		r.Span(TrackSSD, "read.nand", sim.Time(i), sim.Time(i+10))
	}
}

// BenchmarkStageAccount times the instruments of one fine-cache hit: Begin,
// three marks and a Finish offering the request to a full tail recorder
// that keeps it one time in 64.
func BenchmarkStageAccount(b *testing.B) {
	a := NewStageAccount()
	a.SetTail(fullTail(1024))
	cache := Intern("host.cache")
	fineHit(a, 0, 5, cache) // grows the account's segment buffer
	now := sim.Time(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat := sim.Time(5)
		if i%64 == 0 {
			lat += sim.Time(i)
		}
		fineHit(a, now, lat, cache)
		now += lat
	}
}

// BenchmarkTailObserve times TailRecorder.Observe on a stream the full kept
// set mostly rejects: one request in 64 outranks it and is admitted, with
// 3, 8 or 12 segments in turn, so admissions move between slot sizes.
func BenchmarkTailObserve(b *testing.B) {
	r := fullTail(1024)
	segs := make([]StageSeg, 12)
	for i := range segs {
		segs[i] = StageSeg{Start: sim.Time(i), End: sim.Time(i + 1), Stage: Stage(i)}
	}
	sizes := [...]int{3, 8, 12} // a hit, a block read, a retried read
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, n := sim.Time(3+i%50), 8
		if i%64 == 0 {
			lat, n = lat+sim.Time(i), sizes[i/64%len(sizes)]
		}
		r.Observe(segs[:n], 0, lat)
	}
}

// BenchmarkTailObserveAdmit times TailRecorder.Observe when every request
// outranks the full kept set: each packs its 8 segments, a block read's
// worth with durations from 300 ns to 50 µs, into the evicted entry's slot
// and sifts the heap.
func BenchmarkTailObserveAdmit(b *testing.B) {
	r := fullTail(1024)
	segs := make([]StageSeg, 8)
	var at sim.Time
	for i := range segs {
		d := sim.Time(300 + 700*i)
		if i == 5 {
			d = 50 * sim.Microsecond
		}
		segs[i] = StageSeg{Start: at, End: at + d, Stage: Stage(i), Res: Res(i)}
		at += d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(segs, 0, at+sim.Time(i))
	}
}
