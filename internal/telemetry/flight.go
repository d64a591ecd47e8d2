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

// FlightRecorder is the post-mortem capture of a run: a fixed-size ring
// of the most recent spans, instants and request boundaries. Unlike
// Recorder it never grows — a multi-hour faulted run costs the same memory
// as a unit test — and its value is realized only when something goes
// wrong: the CLI dumps the ring as annotated JSON when a request dies with
// ErrUncorrectable or the harness hits any fatal error, so the last
// moments before the failure (which NAND die, which retry step, which
// fallback) are on disk for debugging.
//
// It implements Tracer; install it with System.SetTracer, or alongside a
// Recorder via Tee. A mutex guards the ring: spans arrive from the
// simulator thread while Dump may be called from a signal/error path.
type FlightRecorder struct {
	mu      sync.Mutex
	entries []flightEntry
	next    uint64 // total entries ever pushed; ring slot is next % cap
}

// flightEntry is one captured event; Kind distinguishes spans, instants
// and request boundaries.
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
	return &FlightRecorder{entries: make([]flightEntry, n)}
}

// Enabled implements Tracer.
func (f *FlightRecorder) Enabled() bool { return true }

// BeginRequest implements Tracer.
func (f *FlightRecorder) BeginRequest(name string, start sim.Time) {
	f.push(flightEntry{Kind: "request", Track: TrackVFS, Name: name, StartUs: start.Micros()})
}

// EndRequest implements Tracer. Request completion is implied by the next
// BeginRequest; the ring records only the boundary events it saw.
func (f *FlightRecorder) EndRequest(sim.Time) {}

// Span implements Tracer.
func (f *FlightRecorder) Span(track, name string, start, end sim.Time) {
	if end < start {
		end = start
	}
	f.push(flightEntry{Kind: "span", Track: track, Name: name,
		StartUs: start.Micros(), DurUs: (end - start).Micros()})
}

// Instant implements Tracer.
func (f *FlightRecorder) Instant(track, name string, at sim.Time) {
	f.push(flightEntry{Kind: "instant", Track: track, Name: name, StartUs: at.Micros()})
}

func (f *FlightRecorder) push(e flightEntry) {
	f.mu.Lock()
	e.Seq = f.next
	f.entries[f.next%uint64(len(f.entries))] = e
	f.next++
	f.mu.Unlock()
}

// Len reports how many entries the ring currently holds.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < uint64(len(f.entries)) {
		return int(f.next)
	}
	return len(f.entries)
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
	n := uint64(len(f.entries))
	kept := f.next
	if kept > n {
		kept = n
	}
	events := make([]flightEntry, 0, kept)
	for i := uint64(0); i < kept; i++ {
		events = append(events, f.entries[(f.next-kept+i)%n])
	}
	dropped := f.next - kept
	f.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(flightDump{
		Reason:   reason,
		AtUs:     now.Micros(),
		Captured: int(kept),
		Dropped:  dropped,
		Events:   events,
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// FlightDump arms a FlightRecorder for a command-line tool: it owns the
// ring and the file the ring is dumped into. The file is created up
// front, so a bad path fails before the run does, and the first Dump is
// the only one — the first anomaly's ring holds the events leading up to
// it, which later dumps would overwrite. All methods are safe on a nil
// *FlightDump (no -flight-dump given) and from concurrent goroutines.
type FlightDump struct {
	rec    *FlightRecorder
	path   string
	file   *os.File
	tool   string
	now    func() sim.Time
	out    io.Writer
	prefix string // on the out line: "tool: " when it goes to stderr
	once   sync.Once
}

// OpenFlightDump creates path and arms a default-size recorder. now stamps
// the dump with the run's virtual time (nil stamps 0). The line
// "flight recorder dumped to PATH (REASON)" goes to out; a nil out sends it
// to stderr with the "tool: " prefix. Dump failures always go to stderr.
func OpenFlightDump(path, tool string, now func() sim.Time, out io.Writer) (*FlightDump, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &FlightDump{rec: NewFlightRecorder(DefaultFlightEvents),
		path: path, file: f, tool: tool, now: now, out: out}
	if d.now == nil {
		d.now = func() sim.Time { return 0 }
	}
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
		if err := d.rec.Dump(d.file, reason, d.now()); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", d.tool, err)
			return
		}
		fmt.Fprintf(d.out, "%sflight recorder dumped to %s (%s)\n", d.prefix, d.path, reason)
	})
}

// OnPanic is deferred around a run: a panic dumps the ring with the panic
// value as the reason, then keeps unwinding.
func (d *FlightDump) OnPanic() {
	if r := recover(); r != nil {
		d.Dump(fmt.Sprintf("panic: %v", r))
		panic(r)
	}
}

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
