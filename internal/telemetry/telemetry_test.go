package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pipette/internal/sim"
)

func TestNopTracerDisabled(t *testing.T) {
	tr := Nop()
	if tr.Enabled() {
		t.Fatal("nop tracer reports Enabled")
	}
	// All methods must be callable without effect.
	tr.BeginRequest("read", 0)
	tr.Span("vfs", "x", 0, 10)
	tr.Instant("vfs", "miss", 5)
	tr.EndRequest(10)
}

func TestOrNop(t *testing.T) {
	if OrNop(nil).Enabled() {
		t.Fatal("OrNop(nil) is not the nop tracer")
	}
	r := NewRecorder()
	if OrNop(r) != Tracer(r) {
		t.Fatal("OrNop did not pass through a non-nil tracer")
	}
}

func TestRecorderSpansAndHistograms(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	r.BeginRequest("read 4096B", 100)
	r.Span(TrackNVMe, "read", 110, 150)
	r.Span(TrackNVMe, "read", 160, 200)
	r.EndRequest(210)

	if got := r.reqID; got != 1 {
		t.Fatalf("completed request scopes = %d, want 1", got)
	}
	// Two nvme spans plus the request span emitted by EndRequest.
	if got := r.Events(); got != 3 {
		t.Fatalf("Events = %d, want 3", got)
	}
	h := r.PhaseHistogram("nvme/read")
	if h == nil || h.Count() != 2 {
		t.Fatalf("nvme/read histogram = %+v, want 2 samples", h)
	}
	if h.Mean() != 40 {
		t.Fatalf("nvme/read mean = %v, want 40", h.Mean())
	}
	req := r.PhaseHistogram("vfs/read 4096B")
	if req == nil || req.Count() != 1 || req.Max() != 110 {
		t.Fatalf("request histogram wrong: %+v", req)
	}
}

func TestRecorderClampsBackwardSpan(t *testing.T) {
	r := NewRecorder()
	r.Span(TrackSSD, "weird", 100, 50)
	h := r.PhaseHistogram("ssd/weird")
	if h.Max() != 0 {
		t.Fatalf("backward span observed as %v, want 0", h.Max())
	}
}

func TestRecorderEventCap(t *testing.T) {
	r := NewRecorder()
	r.SetMaxEvents(4)
	for i := 0; i < 10; i++ {
		r.Span(TrackFTL, "map", sim.Time(i), sim.Time(i+1))
	}
	if got := r.Events(); got != 4 {
		t.Fatalf("Events = %d, want cap 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	// Histograms keep accumulating past the cap.
	if got := r.PhaseHistogram("ftl/map").Count(); got != 10 {
		t.Fatalf("histogram count = %d, want 10", got)
	}
}

// TestChromeTraceSchema asserts the exported JSON is a valid Chrome
// trace-event file: it unmarshals, every event has name/ph/pid/tid, ph is
// one of the emitted types, "X" events carry a non-negative dur, and "i"
// events carry a scope.
func TestChromeTraceSchema(t *testing.T) {
	r := NewRecorder()
	r.BeginRequest("read", 1000)
	r.Span("nand/d3", "tR", 1100, 4100)
	r.Span("nand/ch0", "xfer", 4100, 4500)
	r.Instant(TrackPageCache, "miss", 1050)
	r.EndRequest(5000)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not unmarshal: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var spans, instants, meta int
	threadNames := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing required field: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("event %d: X span without non-negative dur", i)
			}
			if ev.Ts == nil {
				t.Fatalf("event %d: X span without ts", i)
			}
		case "i":
			instants++
			if ev.S == "" {
				t.Fatalf("event %d: instant without scope", i)
			}
		case "M":
			meta++
			if ev.Name == "thread_name" {
				threadNames[ev.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("event %d: unexpected ph %q", i, ev.Ph)
		}
	}
	if spans != 3 { // tR, xfer, and the request span
		t.Fatalf("spans = %d, want 3", spans)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1", instants)
	}
	for _, want := range []string{"vfs", "nand/d3", "nand/ch0", "pagecache"} {
		if !threadNames[want] {
			t.Fatalf("missing thread_name metadata for track %q", want)
		}
	}
}

func TestCollapseTrack(t *testing.T) {
	cases := map[string]string{
		"nand/d12":  "nand/d*",
		"nand/ch0":  "nand/ch*",
		"vfs":       "vfs",
		"pagecache": "pagecache",
		"42":        "42", // all digits: leave alone
	}
	for in, want := range cases {
		if got := collapseTrack(in); got != want {
			t.Errorf("collapseTrack(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBreakdownMergesInstanceTracks(t *testing.T) {
	r := NewRecorder()
	r.Span("nand/d3", "tR", 0, 3000)
	r.Span("nand/d5", "tR", 0, 5000)
	r.Span("nand/ch0", "xfer", 0, 400)
	r.Span(TrackVFS, "read", 0, 9000)

	tbl := r.Breakdown()
	rows := map[string][]string{}
	for _, row := range tbl.Rows {
		rows[row[0]] = row
	}
	nand, ok := rows["nand/d*/tR"]
	if !ok {
		t.Fatalf("no merged nand/d*/tR row; rows: %v", tbl.Rows)
	}
	if nand[1] != "2" {
		t.Fatalf("merged tR count = %s, want 2", nand[1])
	}
	if nand[2] != "4.00" { // mean of 3us and 5us
		t.Fatalf("merged tR mean = %s, want 4.00", nand[2])
	}
	if _, ok := rows["nand/ch*/xfer"]; !ok {
		t.Fatalf("no nand/ch*/xfer row; rows: %v", tbl.Rows)
	}
	if _, ok := rows["vfs/read"]; !ok {
		t.Fatalf("no vfs/read row; rows: %v", tbl.Rows)
	}
}

func TestSamplerTickBoundaries(t *testing.T) {
	v := 0.0
	s, err := NewSampler(1000, []Probe{GaugeProbe("g", func() float64 { return v })})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(500) // before first boundary: no row
	if s.Rows() != 0 {
		t.Fatalf("sampled before boundary: %d rows", s.Rows())
	}
	v = 1
	s.Tick(1000) // exactly at boundary
	if s.Rows() != 1 {
		t.Fatalf("no sample at boundary: %d rows", s.Rows())
	}
	s.Tick(1100) // same interval: no second row
	if s.Rows() != 1 {
		t.Fatalf("double-sampled within interval: %d rows", s.Rows())
	}
	v = 2
	s.Tick(5500) // jumped over several boundaries: exactly one row
	if s.Rows() != 2 {
		t.Fatalf("jump over boundaries gave %d rows, want 2", s.Rows())
	}
	v = 3
	s.Tick(6000) // next boundary after the jump is 6000
	if s.Rows() != 3 {
		t.Fatalf("no sample at post-jump boundary: %d rows", s.Rows())
	}

	tbl := s.Table()
	if want := []string{"time_us", "g"}; strings.Join(tbl.Header, ",") != strings.Join(want, ",") {
		t.Fatalf("header = %v, want %v", tbl.Header, want)
	}
	if tbl.Rows[0][1] != "1" || tbl.Rows[1][1] != "2" || tbl.Rows[2][1] != "3" {
		t.Fatalf("sampled values wrong: %v", tbl.Rows)
	}
}

func TestNewSamplerRejectsBadConfig(t *testing.T) {
	if _, err := NewSampler(0, []Probe{GaugeProbe("g", func() float64 { return 0 })}); err == nil {
		t.Fatal("accepted zero interval")
	}
	if _, err := NewSampler(1000, nil); err == nil {
		t.Fatal("accepted no probes")
	}
}

func TestRateProbe(t *testing.T) {
	var busy sim.Time
	p := RateProbe("ch0_busy", func() sim.Time { return busy })

	busy = 500
	if got := p.Sample(1000); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("first interval rate = %v, want 0.5", got)
	}
	busy = 500 // idle second interval
	if got := p.Sample(2000); got != 0 {
		t.Fatalf("idle interval rate = %v, want 0", got)
	}
	busy = 2500 // fully busy (and beyond, from overlap accounting): clamp to 1
	if got := p.Sample(3000); got != 1 {
		t.Fatalf("saturated interval rate = %v, want clamp to 1", got)
	}
	if got := p.Sample(3000); got != 0 { // zero-width interval
		t.Fatalf("zero-width interval rate = %v, want 0", got)
	}
}

func TestSamplerWriteCSV(t *testing.T) {
	s, err := NewSampler(1000, []Probe{
		GaugeProbe("a", func() float64 { return 1.5 }),
		GaugeProbe("b", func() float64 { return 2 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(1000)
	s.Tick(2000)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_us,a,b" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "1.000,1.5,2" {
		t.Fatalf("csv row = %q", lines[1])
	}
}
