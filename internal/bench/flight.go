package bench

import (
	"fmt"
	"sync"

	"pipette/internal/telemetry"
)

// The armed flight recorder is process-global: the harness builds many
// private systems across pool goroutines, and the recorder (which is
// mutex-guarded and shareable) sees them all, so a post-mortem dump shows
// the interleaved recent history of every cell that was running when
// things went wrong.
var (
	flightMu   sync.Mutex
	flightRec  *telemetry.FlightRecorder
	flightDump func(reason string)
)

// ArmFlight arms a shared flight recorder for every engine the harness
// builds from here on: newEngine and ReplayKV install it as each private
// system's tracer, and a cell that panics invokes dump (with the cell
// label and panic value as the reason) before the panic propagates. A
// replay that tolerates an uncorrectable media error invokes dump at the
// first one, naming what was lost. Callers make dump
// idempotent — a parallel run can have several cells fail. Passing nil
// disarms.
func ArmFlight(fr *telemetry.FlightRecorder, dump func(reason string)) {
	flightMu.Lock()
	flightRec = fr
	flightDump = dump
	flightMu.Unlock()
}

func armedFlight() *telemetry.FlightRecorder {
	flightMu.Lock()
	defer flightMu.Unlock()
	return flightRec
}

// flightPanic is deferred around each cell: on panic it dumps the flight
// ring (so the events leading up to the crash survive) and repanics with
// the original value.
func flightPanic(label string) {
	r := recover()
	if r == nil {
		return
	}
	flightAnomaly(fmt.Sprintf("panic in cell %q: %v", label, r))
	panic(r)
}

// flightAnomaly dumps the armed flight ring with reason; unarmed, it does
// nothing.
func flightAnomaly(reason string) {
	flightMu.Lock()
	dump := flightDump
	flightMu.Unlock()
	if dump != nil {
		dump(reason)
	}
}
