package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"pipette/internal/metrics"
	"pipette/internal/sim"
)

// event is one recorded trace entry.
type event struct {
	track string
	name  string
	start sim.Time
	dur   sim.Time
	req   uint64
	kind  eventKind
}

// eventKind tells spans, instants and request boundaries apart.
type eventKind uint8

const (
	evSpan eventKind = iota
	evInstant
	evRequest // a request's start; only the flight recorder logs these
)

// eventKinds names each kind in the flight dump.
var eventKinds = [...]string{evSpan: "span", evInstant: "instant", evRequest: "request"}

// eventLog is the bounded event store of the Recorder and the
// FlightRecorder: it keeps the newest max events, growing lazily up to max,
// and counts the older events it drops.
type eventLog struct {
	max     int
	buf     []event
	head    int // slot of the oldest event once buf is full
	dropped uint64
}

func (l *eventLog) push(e event) {
	if len(l.buf) < l.max {
		l.buf = append(l.buf, e)
		return
	}
	l.dropped++
	if l.max > 0 {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	}
}

// events returns the kept events, oldest first. The result aliases the
// log until it wraps.
func (l *eventLog) events() []event {
	if l.head == 0 {
		return l.buf
	}
	out := make([]event, 0, len(l.buf))
	return append(append(out, l.buf[l.head:]...), l.buf[:l.head]...)
}

// DefaultMaxEvents bounds the recorded event log (~30 MB of JSON). Past the
// cap, the oldest events are dropped but phase histograms keep
// accumulating, so the breakdown table stays exact over the whole run.
const DefaultMaxEvents = 1 << 18

// Recorder implements Tracer: it collects spans for Chrome-trace export and
// folds every span into a per-phase latency histogram. Not safe for
// concurrent use.
type Recorder struct {
	log eventLog

	hists     map[string]*metrics.Histogram
	histOrder []string

	reqID    uint64 // request scopes opened so far
	req      uint64 // the open scope's id; 0 outside a request
	reqName  string
	reqStart sim.Time
}

// NewRecorder creates a recorder with the default event cap.
func NewRecorder() *Recorder {
	return &Recorder{
		log:   eventLog{max: DefaultMaxEvents},
		hists: make(map[string]*metrics.Histogram),
	}
}

// SetMaxEvents overrides the event cap before recording starts (0 keeps
// histograms only).
func (r *Recorder) SetMaxEvents(n int) { r.log.max = n }

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// BeginRequest implements Tracer.
func (r *Recorder) BeginRequest(name string, start sim.Time) {
	r.reqID++
	r.req, r.reqName, r.reqStart = r.reqID, name, start
}

// EndRequest implements Tracer.
func (r *Recorder) EndRequest(end sim.Time) {
	if r.req == 0 {
		return
	}
	r.Span(TrackVFS, r.reqName, r.reqStart, end)
	r.req = 0
}

// Span implements Tracer.
func (r *Recorder) Span(track, name string, start, end sim.Time) {
	if end < start {
		end = start
	}
	r.observe(track, name, end-start)
	r.log.push(event{track: track, name: name, start: start, dur: end - start, req: r.req})
}

// Instant implements Tracer.
func (r *Recorder) Instant(track, name string, at sim.Time) {
	r.log.push(event{track: track, name: name, start: at, req: r.req, kind: evInstant})
}

func (r *Recorder) observe(track, name string, d sim.Time) {
	key := track + "/" + name
	h, ok := r.hists[key]
	if !ok {
		h = &metrics.Histogram{}
		r.hists[key] = h
		r.histOrder = append(r.histOrder, key)
	}
	h.Observe(d)
}

// Events reports the kept events.
func (r *Recorder) Events() int { return len(r.log.buf) }

// Dropped reports the older events dropped past the cap.
func (r *Recorder) Dropped() uint64 { return r.log.dropped }

// PhaseHistogram returns the histogram of one "track/name" phase, or nil.
func (r *Recorder) PhaseHistogram(key string) *metrics.Histogram { return r.hists[key] }

// collapseTrack folds per-instance tracks into one phase family for the
// breakdown table: "nand/d12" -> "nand/d*", "nand/ch0" -> "nand/ch*".
func collapseTrack(track string) string {
	end := len(track)
	for end > 0 && track[end-1] >= '0' && track[end-1] <= '9' {
		end--
	}
	if end == len(track) || end == 0 {
		return track
	}
	return track[:end] + "*"
}

// Breakdown aggregates the per-phase histograms into a latency table
// (count, mean, p50, p99, max in microseconds). Per-die and per-channel
// NAND tracks are merged into one row per phase via Histogram.Merge, so 64
// dies do not become 64 rows.
func (r *Recorder) Breakdown() *metrics.Table {
	merged := make(map[string]*metrics.Histogram)
	var order []string
	for _, key := range r.histOrder {
		slash := strings.LastIndexByte(key, '/')
		ckey := collapseTrack(key[:slash]) + key[slash:]
		h, ok := merged[ckey]
		if !ok {
			h = &metrics.Histogram{}
			merged[ckey] = h
			order = append(order, ckey)
		}
		h.Merge(r.hists[key])
	}
	t := &metrics.Table{Header: []string{"phase", "count", "mean(us)", "p50(us)", "p99(us)", "max(us)"}}
	for _, key := range order {
		h := merged[key]
		t.AddRow(key,
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.2f", h.Mean().Micros()),
			fmt.Sprintf("%.2f", h.Quantile(0.5).Micros()),
			fmt.Sprintf("%.2f", h.Quantile(0.99).Micros()),
			fmt.Sprintf("%.2f", h.Max().Micros()))
	}
	return t
}

// --- Chrome trace-event export --------------------------------------------

// traceEvent is the JSON shape of one Chrome trace event; see the Trace
// Event Format spec (the subset Perfetto's legacy importer accepts).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// trackRank orders tracks host-side first, device-side last, matching the
// request's journey down the stack.
func trackRank(track string) int {
	switch {
	case track == TrackVFS:
		return 0
	case track == TrackPageCache:
		return 1
	case track == TrackFine:
		return 2
	case track == TrackBlock:
		return 3
	case track == TrackNVMe:
		return 4
	case track == TrackSSD:
		return 5
	case track == TrackFTL:
		return 6
	case strings.HasPrefix(track, "nand/ch"):
		return 8
	case strings.HasPrefix(track, "nand/"):
		return 7
	default:
		return 9
	}
}

// WriteChromeTrace streams the recorded events as Chrome trace-event JSON
// ({"traceEvents": [...]}); load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Tracks become named threads of one process; span
// timestamps are virtual-time microseconds.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	// bufio.Writer keeps its first write error and Flush returns it, so the
	// writes below go unchecked.
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)

	// Assign tids in first-seen order; metadata names and orders the tracks.
	events := r.log.events()
	tids := make(map[string]int)
	var tracks []string
	for _, e := range events {
		if _, ok := tids[e.track]; !ok {
			tids[e.track] = len(tracks) + 1
			tracks = append(tracks, e.track)
		}
	}
	sep := ""
	emit := func(ev traceEvent) {
		b, _ := json.Marshal(ev) // strings and finite numbers: cannot fail
		bw.WriteString(sep)
		bw.Write(b)
		sep = ","
	}
	for _, track := range tracks {
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]any{"name": track}})
		emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]any{"sort_index": trackRank(track)}})
	}
	emit(traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "pipette (virtual time)"}})

	for _, e := range events {
		ev := traceEvent{Name: e.name, Ts: e.start.Micros(), Pid: 1, Tid: tids[e.track]}
		if e.req != 0 {
			ev.Args = map[string]any{"req": e.req}
		}
		if e.kind == evInstant {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			dur := e.dur.Micros()
			ev.Dur = &dur
		}
		emit(ev)
	}
	fmt.Fprintf(bw, `],"otherData":{"droppedEvents":%d}}`, r.log.dropped)
	return bw.Flush()
}
