package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"pipette/internal/sim"
)

// FlightRecorder is the post-mortem capture of a run: the Recorder's event
// ring, capped at a few thousand of the most recent spans, instants and
// request boundaries, so a multi-hour faulted run costs the same memory as
// a unit test. Its value is realized only when something goes wrong: the
// CLI dumps the ring as annotated JSON when a request dies with
// ErrUncorrectable or the harness hits any fatal error, so the last
// moments before the failure (which NAND die, which retry step, which
// fallback) are on disk for debugging.
//
// It implements Tracer; install it with System.SetTracer, or alongside a
// Recorder via Tee. A mutex guards the ring: spans arrive from the
// simulator thread while Dump may be called from a signal/error path.
type FlightRecorder struct {
	mu  sync.Mutex
	log eventLog
}

// flightEntry is one captured event as Dump writes it; Kind distinguishes
// spans, instants and request boundaries.
type flightEntry struct {
	Seq     uint64  `json:"seq"`
	Kind    string  `json:"kind"` // span | instant | request
	Track   string  `json:"track,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us,omitempty"`
}

// DefaultFlightEvents is the default ring capacity: enough to hold the
// full stack traversal of the last few hundred requests.
const DefaultFlightEvents = 4096

// NewFlightRecorder creates a recorder holding the last n events
// (n <= 0 selects DefaultFlightEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRecorder{log: eventLog{max: n}}
}

// Enabled implements Tracer.
func (f *FlightRecorder) Enabled() bool { return true }

// BeginRequest implements Tracer.
func (f *FlightRecorder) BeginRequest(name string, start sim.Time) {
	f.push(event{track: TrackVFS, name: name, start: start, kind: evRequest})
}

// EndRequest implements Tracer. Request completion is implied by the next
// BeginRequest; the ring records only the boundary events it saw.
func (f *FlightRecorder) EndRequest(sim.Time) {}

// Span implements Tracer.
func (f *FlightRecorder) Span(track, name string, start, end sim.Time) {
	if end < start {
		end = start
	}
	f.push(event{track: track, name: name, start: start, dur: end - start})
}

// Instant implements Tracer.
func (f *FlightRecorder) Instant(track, name string, at sim.Time) {
	f.push(event{track: track, name: name, start: at, kind: evInstant})
}

func (f *FlightRecorder) push(e event) {
	f.mu.Lock()
	f.log.push(e)
	f.mu.Unlock()
}

// Len reports how many entries the ring currently holds.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.log.buf)
}

// flightDump is the JSON document Dump writes.
type flightDump struct {
	Reason   string        `json:"reason"`
	AtUs     float64       `json:"at_us"`
	Captured int           `json:"captured"`
	Dropped  uint64        `json:"dropped"` // events that aged out of the ring
	Events   []flightEntry `json:"events"`  // oldest first
}

// Dump writes the ring as an annotated JSON document: the dump reason and
// virtual timestamp, how many older events aged out, and the surviving
// events oldest-first. The recorder keeps recording after a dump.
func (f *FlightRecorder) Dump(w io.Writer, reason string, now sim.Time) error {
	f.mu.Lock()
	events := f.log.events()
	d := flightDump{Reason: reason, AtUs: now.Micros(), Captured: len(events), Dropped: f.log.dropped,
		Events: make([]flightEntry, len(events))}
	for i, e := range events {
		d.Events[i] = flightEntry{Seq: d.Dropped + uint64(i), Kind: eventKinds[e.kind],
			Track: e.track, Name: e.name, StartUs: e.start.Micros(), DurUs: e.dur.Micros()}
	}
	f.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	return bw.Flush()
}

// FlightDump arms a FlightRecorder for a command-line tool: it owns the
// ring and the file the ring is dumped into. The file is created up
// front, so a bad path fails before the run does, and the first Dump is
// the only one — the first anomaly's ring holds the events leading up to
// it, which later dumps would overwrite. A run that ends cleanly calls
// End, so the file always holds a dump. All methods are safe on a nil
// *FlightDump (no -flight-dump given) and from concurrent goroutines.
type FlightDump struct {
	rec    *FlightRecorder
	path   string
	file   *os.File
	tool   string
	out    io.Writer
	prefix string // on the out line: "tool: " when it goes to stderr
	once   sync.Once
}

// OpenFlightDump creates path and arms a default-size recorder. The line
// "flight recorder dumped to PATH (REASON)" goes to out; a nil out sends it
// to stderr with the "tool: " prefix. Dump failures always go to stderr.
func OpenFlightDump(path, tool string, out io.Writer) (*FlightDump, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &FlightDump{rec: NewFlightRecorder(DefaultFlightEvents),
		path: path, file: f, tool: tool, out: out}
	if d.out == nil {
		d.out, d.prefix = os.Stderr, tool+": "
	}
	return d, nil
}

// Recorder returns the ring to install as a tracer (nil when unarmed).
func (d *FlightDump) Recorder() *FlightRecorder {
	if d == nil {
		return nil
	}
	return d.rec
}

// Dump writes the ring with reason on the first call and reports where
// it went; every later call is a no-op.
func (d *FlightDump) Dump(reason string) {
	if d == nil {
		return
	}
	d.once.Do(func() {
		if err := d.rec.Dump(d.file, reason, 0); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", d.tool, err)
			return
		}
		fmt.Fprintf(d.out, "%sflight recorder dumped to %s (%s)\n", d.prefix, d.path, reason)
	})
}

// EndOfRun is the reason End dumps with.
const EndOfRun = "end of run (no anomaly)"

// End dumps the ring of a run that ended cleanly, so the file holds the
// run's last events even without an anomaly; after an anomaly's dump it
// is a no-op.
func (d *FlightDump) End() { d.Dump(EndOfRun) }

// Close closes the dump file.
func (d *FlightDump) Close() error {
	if d == nil {
		return nil
	}
	return d.file.Close()
}

// multiTracer fans events out to several tracers.
type multiTracer struct {
	trs []Tracer
}

// Tee combines tracers: every event goes to all of them. Nop and nil
// members are dropped; zero live members collapses back to Nop, one
// returns it unwrapped, so the hot path never pays for an empty tee.
func Tee(trs ...Tracer) Tracer {
	live := make([]Tracer, 0, len(trs))
	for _, tr := range trs {
		if tr == nil || tr == Nop() {
			continue
		}
		live = append(live, tr)
	}
	switch len(live) {
	case 0:
		return Nop()
	case 1:
		return live[0]
	}
	return &multiTracer{trs: live}
}

func (m *multiTracer) Enabled() bool { return true }

func (m *multiTracer) BeginRequest(name string, start sim.Time) {
	for _, tr := range m.trs {
		tr.BeginRequest(name, start)
	}
}

func (m *multiTracer) EndRequest(end sim.Time) {
	for _, tr := range m.trs {
		tr.EndRequest(end)
	}
}

func (m *multiTracer) Span(track, name string, start, end sim.Time) {
	for _, tr := range m.trs {
		tr.Span(track, name, start, end)
	}
}

func (m *multiTracer) Instant(track, name string, at sim.Time) {
	for _, tr := range m.trs {
		tr.Instant(track, name, at)
	}
}
