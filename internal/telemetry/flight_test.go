package telemetry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
	d, err := OpenFlightDump(path, "tool", &out)
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
	if doc.AtUs != 0 || doc.Captured != 1 || !strings.HasPrefix(doc.Reason, "cell ") {
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
	d, err := OpenFlightDump(filepath.Join(t.TempDir(), "missing", "flight.json"), "tool", nil)
	if err == nil || d != nil {
		t.Fatalf("OpenFlightDump on a missing directory = %v, %v; want an error", d, err)
	}
}

// TestFlightDumpEnd: End dumps a clean run's ring with EndOfRun; after
// an anomaly's dump it leaves that dump alone; unarmed (nil), it does
// nothing.
func TestFlightDumpEnd(t *testing.T) {
	var nilDump *FlightDump
	nilDump.End()
	for _, anomaly := range []string{"", "fault"} {
		path := filepath.Join(t.TempDir(), "flight.json")
		var out bytes.Buffer
		d, err := OpenFlightDump(path, "tool", &out)
		if err != nil {
			t.Fatal(err)
		}
		if anomaly != "" {
			d.Dump(anomaly)
		}
		d.End()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Reason string `json:"reason"`
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := cmp.Or(anomaly, EndOfRun)
		if err := json.Unmarshal(raw, &doc); err != nil || doc.Reason != want {
			t.Fatalf("dump = %q (%v), want reason %q", raw, err, want)
		}
		if line := fmt.Sprintf("flight recorder dumped to %s (%s)\n", path, want); out.String() != line {
			t.Fatalf("report lines %q, want %q", out.String(), line)
		}
	}
}

// TestRecorderKeepsNewestEvents: past its cap the Recorder's trace keeps
// the newest events, in order, and counts the older ones it dropped.
func TestRecorderKeepsNewestEvents(t *testing.T) {
	r := NewRecorder()
	r.SetMaxEvents(4)
	for i := 0; i < 10; i++ {
		r.Span(TrackFTL, fmt.Sprintf("map-%d", i), sim.Time(i), sim.Time(i+1))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedEvents uint64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if want := []string{"map-6", "map-7", "map-8", "map-9"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("exported spans %v, want %v", names, want)
	}
	if doc.OtherData.DroppedEvents != 6 {
		t.Fatalf("droppedEvents = %d, want 6", doc.OtherData.DroppedEvents)
	}
}

// TestRecorderAndFlightShareLog: given the same spans and instants, the
// Recorder and the FlightRecorder hold the same events, before and after
// their logs wrap.
func TestRecorderAndFlightShareLog(t *testing.T) {
	r := NewRecorder()
	r.SetMaxEvents(5)
	f := NewFlightRecorder(5)
	tr := Tee(r, f)
	for i := 0; i < 12; i++ {
		at := sim.Time(i * 100)
		tr.Span(TrackSSD, fmt.Sprintf("exec-%d", i), at, at+50)
		if i%3 == 0 {
			tr.Instant(TrackPageCache, "miss", at+10)
		}
		if got, want := f.log.events(), r.log.events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d spans: flight log %v, recorder log %v", i+1, got, want)
		}
	}
	if r.Dropped() != f.log.dropped || r.Dropped() != 11 {
		t.Fatalf("dropped: recorder %d, flight %d, want 11", r.Dropped(), f.log.dropped)
	}
}
