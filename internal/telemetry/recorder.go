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
	track   string
	name    string
	start   sim.Time
	dur     sim.Time
	req     uint64
	instant bool
}

// DefaultMaxEvents bounds the recorded event log (~30 MB of JSON). Past the
// cap, events are dropped but phase histograms keep accumulating, so the
// breakdown table stays exact over the whole run.
const DefaultMaxEvents = 1 << 18

// Recorder implements Tracer: it collects spans for Chrome-trace export and
// folds every span into a per-phase latency histogram. Not safe for
// concurrent use.
type Recorder struct {
	maxEvents int
	events    []event
	dropped   uint64

	hists     map[string]*metrics.Histogram
	histOrder []string

	reqID    uint64
	reqName  string
	reqStart sim.Time
	inReq    bool
}

// NewRecorder creates a recorder with the default event cap.
func NewRecorder() *Recorder {
	return &Recorder{
		maxEvents: DefaultMaxEvents,
		hists:     make(map[string]*metrics.Histogram),
	}
}

// SetMaxEvents overrides the event cap (0 keeps histograms only).
func (r *Recorder) SetMaxEvents(n int) { r.maxEvents = n }

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// BeginRequest implements Tracer.
func (r *Recorder) BeginRequest(name string, start sim.Time) {
	r.reqID++
	r.reqName = name
	r.reqStart = start
	r.inReq = true
}

// EndRequest implements Tracer.
func (r *Recorder) EndRequest(end sim.Time) {
	if !r.inReq {
		return
	}
	r.Span(TrackVFS, r.reqName, r.reqStart, end)
	r.inReq = false
}

// Span implements Tracer.
func (r *Recorder) Span(track, name string, start, end sim.Time) {
	if end < start {
		end = start
	}
	r.observe(track, name, end-start)
	r.push(event{track: track, name: name, start: start, dur: end - start, req: r.curReq()})
}

// Instant implements Tracer.
func (r *Recorder) Instant(track, name string, at sim.Time) {
	r.push(event{track: track, name: name, start: at, req: r.curReq(), instant: true})
}

func (r *Recorder) curReq() uint64 {
	if r.inReq {
		return r.reqID
	}
	return 0
}

func (r *Recorder) push(e event) {
	if len(r.events) >= r.maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
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

// Events reports recorded (non-dropped) events.
func (r *Recorder) Events() int { return len(r.events) }

// Dropped reports events discarded past the cap.
func (r *Recorder) Dropped() uint64 { return r.dropped }

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
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}

	// Assign tids in first-seen order; metadata names and orders the tracks.
	tids := make(map[string]int)
	var tracks []string
	for _, e := range r.events {
		if _, ok := tids[e.track]; !ok {
			tids[e.track] = len(tracks) + 1
			tracks = append(tracks, e.track)
		}
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, track := range tracks {
		if err := emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]any{"name": track}}); err != nil {
			return err
		}
		if err := emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]any{"sort_index": trackRank(track)}}); err != nil {
			return err
		}
	}
	if err := emit(traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "pipette (virtual time)"}}); err != nil {
		return err
	}

	for _, e := range r.events {
		ev := traceEvent{
			Name: e.name,
			Ts:   e.start.Micros(),
			Pid:  1,
			Tid:  tids[e.track],
		}
		if e.req != 0 {
			ev.Args = map[string]any{"req": e.req}
		}
		if e.instant {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			dur := e.dur.Micros()
			ev.Dur = &dur
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, `],"otherData":{"droppedEvents":%d}}`, r.dropped); err != nil {
		return err
	}
	return bw.Flush()
}
