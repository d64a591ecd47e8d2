// Package sim provides the deterministic discrete-event foundations used by
// the whole simulator: a virtual nanosecond clock, serially-occupied resource
// timelines (NAND channels, PCIe link), a fast seedable RNG, and the
// zipfian/uniform request generators the paper's workloads are built on.
//
// Everything in this package is deterministic: given the same seed and the
// same sequence of calls, the same virtual timings and samples come out.
package sim

import "fmt"

// Time is a point (or span) in virtual time, in nanoseconds.
//
// The simulation never consults the wall clock; all latencies are modeled
// and accumulate on Time values.
type Time int64

// Convenient spans of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Clock is the virtual clock shared by one simulated system. The zero value
// is a clock at time zero, ready to use.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op; the
// clock is monotonic.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}
