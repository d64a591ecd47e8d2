// Package resource tracks occupancy of the simulated hardware resources —
// NAND channels and dies (channel × way), the PCIe DMA link, the NVMe
// rings — as busy intervals in virtual time. It generalizes the
// cumulative busy counters the device already keeps (sim.Resource,
// Identify's ChannelBusyTime) into timelines: per-resource utilization
// plus a bounded busy-time histogram over virtual-time bins, the raw
// material of pipette-report's utilization heatmap.
//
// Memory stays bounded no matter how long the run is: every timeline in a
// Tracker shares one bin width, and when a run outgrows the fixed bin
// count the tracker merges adjacent bins and doubles the width (the
// EagleTree approach to unbounded traces). Everything is driven by
// virtual time only, so the recorded timelines are deterministic at any
// worker count.
//
// Like the rest of the instrumentation, a Tracker belongs to one
// single-threaded simulated system and is not safe for concurrent use;
// scrape-time readers must hold the owning system's lock.
package resource

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"pipette/internal/metrics"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// DefaultMaxBins is the per-timeline bin budget: 256 bins × 8 B ≈ 2 KB
// per resource regardless of run length.
const DefaultMaxBins = 256

// DefaultBinWidth is the starting bin width. With DefaultMaxBins this
// covers ~16 ms of virtual time before the first rescale.
const DefaultBinWidth = 64 * sim.Microsecond

// Timeline accumulates one resource's busy intervals: total busy time,
// interval count, and busy nanoseconds per virtual-time bin. Obtain
// timelines from Tracker.Register so all of a system's timelines share
// one bin scale.
type Timeline struct {
	tr   *Tracker
	name string

	busy sim.Time
	ops  uint64
	end  sim.Time // latest busy endpoint seen
	bins []sim.Time
	// last is the bin the last interval ended in. Back-to-back intervals
	// of one resource mostly land in it, and those need no division. Any
	// index below len(bins) is a sound guess, so a rescale may leave it.
	last sim.Time
}

// Name reports the resource name, e.g. "nand.ch0" or "pcie.dma".
func (t *Timeline) Name() string { return t.name }

// Busy reports the cumulative busy time.
func (t *Timeline) Busy() sim.Time {
	if t == nil {
		return 0
	}
	return t.busy
}

// Ops reports the number of recorded busy intervals.
func (t *Timeline) Ops() uint64 {
	if t == nil {
		return 0
	}
	return t.ops
}

// Add records one busy interval [start, end). Intervals of a
// serially-occupied resource never overlap, so busy time is additive.
// A nil timeline (tracking disabled) and empty intervals are no-ops.
func (t *Timeline) Add(start, end sim.Time) {
	if t == nil || end <= start {
		return
	}
	t.busy += end - start
	t.ops++
	if end > t.end {
		t.end = end
	}
	t.tr.cover(end)
	w := t.tr.binWidth
	if lo := t.last * w; start >= lo && end <= lo+w {
		t.bins[t.last] += end - start
		return
	}
	last := (end - 1) / w
	for b := start / w; b <= last; b++ {
		lo, hi := b*w, (b+1)*w
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		t.bins[b] += hi - lo
	}
	t.last = last
}

// Utilization reports the busy fraction of [0, elapsed].
func (t *Timeline) Utilization(elapsed sim.Time) float64 {
	if t == nil || elapsed <= 0 {
		return 0
	}
	f := float64(t.busy) / float64(elapsed)
	if f > 1 {
		f = 1
	}
	return f
}

// rescale merges adjacent bin pairs, halving resolution.
func (t *Timeline) rescale() {
	half := len(t.bins) / 2
	for i := 0; i < half; i++ {
		t.bins[i] = t.bins[2*i] + t.bins[2*i+1]
	}
	for i := half; i < len(t.bins); i++ {
		t.bins[i] = 0
	}
}

// Tracker owns a system's resource timelines and their shared bin scale.
type Tracker struct {
	maxBins  int
	binWidth sim.Time
	tls      []*Timeline
}

// NewTracker creates a tracker with the default bin budget and width.
func NewTracker() *Tracker {
	return &Tracker{maxBins: DefaultMaxBins, binWidth: DefaultBinWidth}
}

// Register adds a named timeline. Registration order is the export and
// heatmap row order, so wire resources top-of-stack first. A nil tracker
// returns a nil (inert) timeline, keeping disabled systems zero-cost.
func (tr *Tracker) Register(name string) *Timeline {
	if tr == nil {
		return nil
	}
	t := &Timeline{tr: tr, name: name, bins: make([]sim.Time, tr.maxBins)}
	tr.tls = append(tr.tls, t)
	return t
}

// Len reports the number of registered timelines.
func (tr *Tracker) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.tls)
}

// At returns the i'th registered timeline.
func (tr *Tracker) At(i int) *Timeline { return tr.tls[i] }

// RegisterMetrics publishes every registered timeline on reg as the
// pipette_resource_utilization gauge and pipette_resource_busy_ns_total
// counter, labelled resource=<name> then labels. The series are read at
// scrape time under mu, the owning system's lock, with now as the elapsed
// virtual time.
func (tr *Tracker) RegisterMetrics(reg *telemetry.Registry, mu sync.Locker, now func() sim.Time, labels ...telemetry.Label) {
	for _, tl := range tr.tls {
		lbls := append([]telemetry.Label{telemetry.L("resource", tl.name)}, labels...)
		reg.GaugeFunc("pipette_resource_utilization",
			"busy fraction of elapsed virtual time per hardware resource",
			func() float64 {
				mu.Lock()
				defer mu.Unlock()
				return tl.Utilization(now())
			}, lbls...)
		reg.CounterFunc("pipette_resource_busy_ns_total",
			"cumulative busy virtual time per hardware resource, in nanoseconds",
			func() uint64 {
				mu.Lock()
				defer mu.Unlock()
				return uint64(tl.busy)
			}, lbls...)
	}
}

// cover widens the shared bin scale until `end` fits every timeline.
func (tr *Tracker) cover(end sim.Time) {
	for end > tr.binWidth*sim.Time(tr.maxBins) {
		tr.binWidth *= 2
		for _, t := range tr.tls {
			t.rescale()
		}
	}
}

// TimelineSnapshot is one resource's exported state.
type TimelineSnapshot struct {
	Name        string  `json:"name"`
	BusyNs      int64   `json:"busy_ns"`
	Ops         uint64  `json:"ops"`
	Utilization float64 `json:"utilization"`
	Bins        []int64 `json:"bins,omitempty"` // busy ns per bin
}

// Snapshot is a run's exported resource occupancy: the "timelines" input
// of pipette-report. Resources keep registration order and all share
// BinNs, so rows are directly comparable in a heatmap.
type Snapshot struct {
	ElapsedNs int64              `json:"elapsed_ns"`
	BinNs     int64              `json:"bin_ns"`
	Resources []TimelineSnapshot `json:"resources"`
}

// Snapshot exports the tracker's state over a run of length elapsed.
// Trailing all-zero bins beyond the covered range are trimmed.
func (tr *Tracker) Snapshot(elapsed sim.Time) *Snapshot {
	s := &Snapshot{ElapsedNs: int64(elapsed)}
	if tr == nil {
		return s
	}
	s.BinNs = int64(tr.binWidth)
	used := int((elapsed + tr.binWidth - 1) / tr.binWidth)
	if used > tr.maxBins {
		used = tr.maxBins
	}
	for _, t := range tr.tls {
		ts := TimelineSnapshot{
			Name:        t.name,
			BusyNs:      int64(t.busy),
			Ops:         t.ops,
			Utilization: t.Utilization(elapsed),
		}
		if used > 0 {
			ts.Bins = make([]int64, used)
			for i := 0; i < used; i++ {
				ts.Bins[i] = int64(t.bins[i])
			}
		}
		s.Resources = append(s.Resources, ts)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Field and resource
// order are fixed, so identical runs serialize byte-identically.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Table renders the occupancy summary: busy time, utilization, and
// interval count per resource. Without detail the per-die rows
// ("nand.chX.wY") are folded away, leaving channels and links — the right
// granularity for a run summary; heatmaps want the full detail.
func (s *Snapshot) Table(detail bool) *metrics.Table {
	t := &metrics.Table{Header: []string{"resource", "busy(ms)", "util%", "ops"}}
	for _, r := range s.Resources {
		if !detail && strings.Contains(r.Name, ".w") {
			continue
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%.3f", sim.Time(r.BusyNs).Millis()),
			fmt.Sprintf("%.1f", 100*r.Utilization),
			fmt.Sprintf("%d", r.Ops))
	}
	return t
}

// ReadSnapshot parses a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("resource: parsing snapshot: %w", err)
	}
	return &s, nil
}
