package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics surface of the system: every layer —
// SSD counters, cache hit ratios, KV store activity, fault/recovery
// ledgers, bench pool utilization — registers named series here, and one
// encoder renders them all in Prometheus/OpenMetrics text format for the
// -listen HTTP endpoint.
//
// Two kinds of series coexist:
//
//   - Owned values (Counter, LiveGauge, LiveHistogram) are atomic
//     words the instrumented code writes from any goroutine; a scrape
//     reads them without locks, so the deterministic simulator is never
//     perturbed by an attached scraper.
//   - Collector funcs (CounterFunc, GaugeFunc) are read at scrape time;
//     the registrant guarantees thread safety (pipette.System wraps its
//     getters in the system lock).
//
// Series are grouped into families by name; every series of a family
// shares its help string and kind. Registration order is preserved per
// family, and the encoder sorts families by name, so exposition output is
// deterministic. Registering the same name with a different kind or the
// same name+labels twice panics — both are programmer errors, like
// Table.AddRow arity.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	consts   []Label
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// L builds a Label; it keeps registration call sites compact.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byKey  map[string]*series
}

// series is one labelled time series. Exactly one of the value fields is
// set, matching the family kind and registration method.
type series struct {
	labels []Label

	counter     *Counter
	gauge       *LiveGauge
	hist        *LiveHistogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// LiveGauge is a settable series value (float64 behind atomic bits).
type LiveGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *LiveGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (compare-and-swap loop; gauges are updated rarely).
func (g *LiveGauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Load returns the current value.
func (g *LiveGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// LiveHistogram is a fixed-bucket histogram with atomic cells, safe to
// Observe from the simulator thread while a scraper encodes it. Bounds are
// upper bucket edges in ascending order; an implicit +Inf bucket catches
// the tail.
type LiveHistogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newLiveHistogram(bounds []float64) *LiveHistogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &LiveHistogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *LiveHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports total samples.
func (h *LiveHistogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all samples.
func (h *LiveHistogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// NewRegistry creates a registry. constLabels are appended to every series
// (e.g. engine="pipette").
func NewRegistry(constLabels ...Label) *Registry {
	return &Registry{
		families: make(map[string]*family),
		consts:   constLabels,
	}
}

// Counter registers (or extends) a counter family and returns the series'
// live value.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, &series{labels: labels, counter: c})
	return c
}

// Gauge registers a gauge family series and returns its live value.
func (r *Registry) Gauge(name, help string, labels ...Label) *LiveGauge {
	g := &LiveGauge{}
	r.add(name, help, kindGauge, &series{labels: labels, gauge: g})
	return g
}

// Histogram registers a histogram series over the bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *LiveHistogram {
	h := newLiveHistogram(bounds)
	r.add(name, help, kindHistogram, &series{labels: labels, hist: h})
	return h
}

// CounterFunc registers a counter whose value is read at scrape time. fn
// must be safe to call from the scraper goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, kindCounter, &series{labels: labels, counterFunc: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time. fn must
// be safe to call from the scraper goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &series{labels: labels, gaugeFunc: fn})
}

func (r *Registry) add(name, help string, k kind, s *series) {
	key := labelKey(s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, k))
	}
	if _, dup := f.byKey[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q{%s}", name, key))
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
}

// labelKey is the canonical identity of a label set (sorted by key).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// WritePrometheus encodes every family in Prometheus text exposition
// format (text/plain; version=0.0.4), families sorted by name, series in
// registration order. Label values are escaped per the spec: backslash,
// double quote, and newline.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	consts := r.consts
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		// Snapshot the series slice under the lock; values are atomic or
		// caller-safe funcs, so encoding proceeds without it.
		r.mu.RLock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		r.mu.RUnlock()
		for _, s := range series {
			labels := append(append([]Label{}, s.labels...), consts...)
			switch {
			case s.hist != nil:
				writeHistogram(&b, f.name, labels, s.hist)
			case s.counter != nil:
				writeSample(&b, f.name, labels, float64(s.counter.Load()))
			case s.counterFunc != nil:
				writeSample(&b, f.name, labels, float64(s.counterFunc()))
			case s.gauge != nil:
				writeSample(&b, f.name, labels, s.gauge.Load())
			case s.gaugeFunc != nil:
				writeSample(&b, f.name, labels, s.gaugeFunc())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(b *strings.Builder, name string, labels []Label, h *LiveHistogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(b, name+"_bucket", append(labels, Label{"le", formatValue(bound)}), float64(cum))
	}
	// The +Inf bucket equals _count by definition — even for an empty
	// histogram, which must still expose all three sample families.
	count := h.Count()
	writeSample(b, name+"_bucket", append(labels, Label{"le", "+Inf"}), float64(count))
	writeSample(b, name+"_sum", labels, h.Sum())
	writeSample(b, name+"_count", labels, float64(count))
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// formatValue renders a sample value; integral values print without an
// exponent so counters read naturally.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and line feed.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// escapeHelp escapes a help string: backslash and line feed (quotes are
// legal in help text).
func escapeHelp(v string) string { return helpEscaper.Replace(v) }
