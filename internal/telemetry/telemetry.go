// Package telemetry is the observability layer of the simulated I/O stack:
// per-request spans recorded in virtual time across every layer (VFS, page
// cache, block layer, fine-grained path, NVMe transport, SSD controller,
// FTL, NAND channels/ways), exportable as Chrome trace-event JSON viewable
// in Perfetto; per-phase latency histograms aggregated into a breakdown
// table; and time-series sampling of counters and gauges at a configurable
// virtual-time interval, exportable as CSV.
//
// Every instrumented layer holds a Tracer that defaults to Nop(), whose
// methods are empty — the instrumented hot path costs one interface call
// per phase when tracing is off. Heavier argument construction at call
// sites is guarded by Enabled(). The KV store and its index engines hold
// no tracer: their work shows up as the VFS, device and NAND spans their
// reads and writes issue.
//
// The simulator is single-threaded per system by design, so the Recorder
// and Sampler are not safe for concurrent use, matching internal/metrics;
// the FlightRecorder locks its ring because a dump may run on another
// goroutine.
package telemetry

import "pipette/internal/sim"

// Track names of the instrumented layers. NAND emits per-die and
// per-channel tracks ("nand/d3", "nand/ch0") built by the array.
const (
	TrackVFS       = "vfs"
	TrackPageCache = "pagecache"
	TrackFine      = "fine"
	TrackBlock     = "block"
	TrackNVMe      = "nvme"
	TrackSSD       = "ssd"
	TrackFTL       = "ftl"
)

// Tracer receives simulation events. Implementations: Nop (default,
// discards everything), Recorder (collects spans and histograms for the
// trace export and the phase table), FlightRecorder (keeps the last N
// events for a dump on failure) and Tee (fans events out to several).
//
// All timestamps are virtual time. Spans are complete intervals — in this
// synchronous simulator every phase's start and end are known when the
// phase finishes, so there is no begin/end pairing protocol to get wrong.
type Tracer interface {
	// Enabled reports whether events are recorded. Call sites use it to
	// skip argument construction on the no-op path.
	Enabled() bool
	// BeginRequest opens a host-level request scope (one VFS read or
	// write); spans emitted until EndRequest are tagged with its id.
	BeginRequest(name string, start sim.Time)
	// EndRequest closes the current request scope, emitting the request
	// span itself on the VFS track.
	EndRequest(end sim.Time)
	// Span records one completed phase on a track.
	Span(track, name string, start, end sim.Time)
	// Instant records a point event (e.g. a page-cache miss).
	Instant(track, name string, at sim.Time)
}

// nopTracer discards everything.
type nopTracer struct{}

// Nop returns the zero-cost default tracer.
func Nop() Tracer { return nopTracer{} }

func (nopTracer) Enabled() bool                   { return false }
func (nopTracer) BeginRequest(string, sim.Time)   {}
func (nopTracer) EndRequest(sim.Time)             {}
func (nopTracer) Span(_, _ string, _, _ sim.Time) {}
func (nopTracer) Instant(_, _ string, _ sim.Time) {}

// OrNop returns tr, or the no-op tracer when tr is nil — constructors use
// it so a zero-valued config still yields a safe tracer.
func OrNop(tr Tracer) Tracer {
	if tr == nil {
		return Nop()
	}
	return tr
}
