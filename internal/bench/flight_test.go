package bench

import (
	"strings"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// TestFlightPanicDumpsAndRethrows pins the -flight-dump panic path: a
// cell that panics triggers exactly one dump (with the cell label and
// panic value in the reason) and the panic keeps unwinding afterwards.
func TestFlightPanicDumpsAndRethrows(t *testing.T) {
	fr := telemetry.NewFlightRecorder(16)
	var reasons []string
	ArmFlight(fr, func(reason string) { reasons = append(reasons, reason) })
	defer ArmFlight(nil, nil)

	var p *Pool // nil pool: serial path, same flightPanic guard
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic swallowed by runCell")
			}
			if r != "boom" {
				t.Fatalf("panic value changed: %v", r)
			}
		}()
		_ = p.RunCells([]Cell{{Label: "exploding-cell", Run: func() (*Result, error) {
			panic("boom")
		}}})
	}()
	if len(reasons) != 1 {
		t.Fatalf("dump called %d times, want once", len(reasons))
	}
	if !strings.Contains(reasons[0], "exploding-cell") || !strings.Contains(reasons[0], "boom") {
		t.Errorf("dump reason %q misses cell label or panic value", reasons[0])
	}

	// Disarmed, a panicking cell must not call the stale dump func.
	ArmFlight(nil, nil)
	func() {
		defer func() { recover() }()
		_ = p.RunCells([]Cell{{Label: "again", Run: func() (*Result, error) { panic("x") }}})
	}()
	if len(reasons) != 1 {
		t.Fatalf("disarmed flight recorder still dumped: %v", reasons)
	}
}

// TestArmFlightInstallsTracer checks newEngine attaches the armed
// recorder as the engine tracer, so the ring actually sees spans.
func TestArmFlightInstallsTracer(t *testing.T) {
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightEvents)
	ArmFlight(fr, func(string) {})
	defer ArmFlight(nil, nil)

	if got := armedFlight(); got != fr {
		t.Fatalf("armedFlight returned %v, want the armed recorder", got)
	}
	ArmFlight(nil, nil)
	if got := armedFlight(); got != nil {
		t.Fatalf("disarm left recorder %v installed", got)
	}
}

// TestMediaErrorDumpsFlightOnce pins the -flight-dump promise for media
// errors: a replay that tolerates uncorrectable reads dumps the armed ring
// at the first one, once, with the engine, the workload and the request
// in the reason.
func TestMediaErrorDumpsFlightOnce(t *testing.T) {
	var reasons []string
	ArmFlight(telemetry.NewFlightRecorder(16), func(reason string) { reasons = append(reasons, reason) })
	defer ArmFlight(nil, nil)

	s := TinyScale()
	prof, err := fault.ParseProfile("nand.read:rber*80")
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.stackConfig(s.FileSize())
	cfg.FaultProfile = prof
	e, err := newEngine(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 7)[4] // E
	gen, err := workload.NewSynthetic(mix)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, gen, 4000, RunOpts{TolerateMediaErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost < 2 {
		t.Fatalf("%d requests lost; the test needs at least two media errors", res.Lost)
	}
	if len(reasons) != 1 {
		t.Fatalf("dump called %d times, want once: %q", len(reasons), reasons)
	}
	for _, want := range []string{"uncorrectable", e.Name(), gen.Name(), "request "} {
		if !strings.Contains(reasons[0], want) {
			t.Errorf("dump reason %q does not name %q", reasons[0], want)
		}
	}
}
