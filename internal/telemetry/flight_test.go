package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pipette/internal/sim"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Span("nand/d0", fmt.Sprintf("tR-%d", i), sim.Time(i*1000), sim.Time(i*1000+500))
	}
	if got := f.Len(); got != 8 {
		t.Fatalf("ring holds %d entries, want 8", got)
	}

	var buf bytes.Buffer
	if err := f.Dump(&buf, "test", sim.Time(20_000)); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Reason   string `json:"reason"`
		Captured int    `json:"captured"`
		Dropped  uint64 `json:"dropped"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Reason != "test" || d.Captured != 8 || d.Dropped != 12 {
		t.Fatalf("dump header wrong: %+v", d)
	}
	// Oldest-first: the surviving events are 12..19 in order.
	for i, ev := range d.Events {
		if want := fmt.Sprintf("tR-%d", 12+i); ev.Name != want {
			t.Fatalf("event %d is %q, want %q", i, ev.Name, want)
		}
		if i > 0 && ev.Seq != d.Events[i-1].Seq+1 {
			t.Fatalf("non-monotonic seq at %d: %v", i, d.Events)
		}
	}
}

func TestFlightRecorderKinds(t *testing.T) {
	f := NewFlightRecorder(16)
	f.BeginRequest("read", 0)
	f.Span(TrackSSD, "exec", 0, 100)
	f.Instant(TrackPageCache, "miss", 50)
	f.EndRequest(100) // boundary only; not recorded

	var buf bytes.Buffer
	if err := f.Dump(&buf, "kinds", 0); err != nil {
		t.Fatal(err)
	}
	var d flightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(d.Events))
	for i, ev := range d.Events {
		kinds[i] = ev.Kind
	}
	want := []string{"request", "span", "instant"}
	if len(kinds) != len(want) {
		t.Fatalf("got kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("got kinds %v, want %v", kinds, want)
		}
	}
}

// TestFlightRecorderKeepsRecordingAfterDump: a dump is a snapshot, not a
// terminal state — the ring keeps collecting for a later, second failure.
func TestFlightRecorderKeepsRecordingAfterDump(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Span("ssd", "a", 0, 1)
	var buf bytes.Buffer
	if err := f.Dump(&buf, "first", 0); err != nil {
		t.Fatal(err)
	}
	f.Span("ssd", "b", 1, 2)
	buf.Reset()
	if err := f.Dump(&buf, "second", 0); err != nil {
		t.Fatal(err)
	}
	var d flightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Captured != 2 {
		t.Fatalf("second dump captured %d events, want 2", d.Captured)
	}
}

func TestTee(t *testing.T) {
	if tr := Tee(); tr != Nop() {
		t.Fatal("empty Tee should be Nop")
	}
	if tr := Tee(nil, Nop()); tr != Nop() {
		t.Fatal("Tee of nil+Nop should be Nop")
	}
	rec := NewRecorder()
	if tr := Tee(rec, nil); tr != Tracer(rec) {
		t.Fatal("single-member Tee should unwrap")
	}

	fr := NewFlightRecorder(8)
	tr := Tee(rec, fr)
	if !tr.Enabled() {
		t.Fatal("tee of live tracers must be enabled")
	}
	tr.BeginRequest("read", 0)
	tr.Span("ssd", "exec", 0, 10)
	tr.Instant("pagecache", "miss", 5)
	tr.EndRequest(10)
	if rec.Events() != 3 { // span + instant + request span from EndRequest
		t.Fatalf("recorder saw %d events, want 3", rec.Events())
	}
	if fr.Len() != 3 { // request + span + instant (EndRequest unrecorded)
		t.Fatalf("flight recorder holds %d entries, want 3", fr.Len())
	}
}

// TestFlightDumpOnce: racing Dump calls (a -j run whose cells fail
// together) leave exactly one JSON document in the file, report it once,
// and the first caller's reason wins.
func TestFlightDumpOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var out bytes.Buffer
	d, err := OpenFlightDump(path, "tool", func() sim.Time { return 7 * sim.Microsecond }, &out)
	if err != nil {
		t.Fatal(err)
	}
	d.Recorder().Instant(TrackSSD, "before the failure", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.Dump(fmt.Sprintf("cell %d failed", i))
		}(i)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var doc struct {
		Reason   string  `json:"reason"`
		AtUs     float64 `json:"at_us"`
		Captured int     `json:"captured"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, raw)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		t.Fatalf("file holds more than one document (%v):\n%s", err, raw)
	}
	if doc.AtUs != 7 || doc.Captured != 1 || !strings.HasPrefix(doc.Reason, "cell ") {
		t.Fatalf("dump header wrong: %+v", doc)
	}
	want := fmt.Sprintf("flight recorder dumped to %s (%s)\n", path, doc.Reason)
	if out.String() != want {
		t.Fatalf("report line %q, want %q", out.String(), want)
	}
}

// TestFlightDumpBadPath: a path that cannot be created fails at open,
// before any run starts.
func TestFlightDumpBadPath(t *testing.T) {
	d, err := OpenFlightDump(filepath.Join(t.TempDir(), "missing", "flight.json"), "tool", nil, nil)
	if err == nil || d != nil {
		t.Fatalf("OpenFlightDump on a missing directory = %v, %v; want an error", d, err)
	}
}

// TestFlightDumpOnPanic: the deferred panic guard dumps with the panic
// value as the reason and keeps unwinding with the same value; unarmed
// (nil), it only keeps unwinding.
func TestFlightDumpOnPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var out bytes.Buffer
	d, err := OpenFlightDump(path, "tool", nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, fd := range []*FlightDump{d, nil} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("panic value %v, want boom", r)
				}
			}()
			defer fd.OnPanic()
			panic("boom")
		}()
	}
	var doc struct {
		Reason string `json:"reason"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Reason != "panic: boom" {
		t.Fatalf("panic dump = %q (%v), want reason %q", raw, err, "panic: boom")
	}
	if !strings.Contains(out.String(), "(panic: boom)") {
		t.Fatalf("panic dump not reported: %q", out.String())
	}
}
