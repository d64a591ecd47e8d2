package telemetry

import "pipette/internal/sim"

// latGridBoundsUs is the fixed latency-bucket ladder (microseconds) for
// the time × latency heatmap. The last implicit row is overflow
// (>= the final bound).
var latGridBoundsUs = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// latGridMaxBins bounds the number of time bins; when a run outgrows
// them, the bin width doubles and adjacent bins merge — the same
// resolution-doubling scheme resource.Tracker uses, so any run fits with
// bounded memory and no knob.
const latGridMaxBins = 128

// defaultLatGridBin is the starting time-bin width.
const defaultLatGridBin = 64 * sim.Microsecond

// LatencyGrid accumulates a completion-time × latency-bucket heatmap: each
// finished request increments one cell keyed by (completion time bin,
// latency bucket). The grid is fed from the completion stream in virtual
// time, so it is deterministic at any worker count. A LatencyGrid belongs
// to one single-threaded simulated system.
type LatencyGrid struct {
	origin   sim.Time
	binWidth sim.Time
	used     int // time bins touched (highest + 1)
	counts   [][]uint64
	total    uint64
}

// NewLatencyGrid returns an empty grid whose time axis starts at origin
// (the measured-phase start; completions before it clamp to bin 0).
func NewLatencyGrid(origin sim.Time) *LatencyGrid {
	rows := len(latGridBoundsUs) + 1 // + overflow row
	counts := make([][]uint64, rows)
	for i := range counts {
		counts[i] = make([]uint64, latGridMaxBins)
	}
	return &LatencyGrid{origin: origin, binWidth: defaultLatGridBin, counts: counts}
}

// latGridBoundsNs is the ladder in whole nanoseconds, the form latBucket
// compares against: lat < b ns exactly when lat.Micros() < b/1000 µs.
var latGridBoundsNs = func() []sim.Time {
	ns := make([]sim.Time, len(latGridBoundsUs))
	for i, b := range latGridBoundsUs {
		ns[i] = sim.Time(b) * sim.Microsecond
	}
	return ns
}()

// latBucket maps a latency to its ladder row.
func latBucket(lat sim.Time) int {
	for i, b := range latGridBoundsNs {
		if lat < b {
			return i
		}
	}
	return len(latGridBoundsNs)
}

// Observe records one completion at virtual time done with end-to-end
// latency lat.
func (g *LatencyGrid) Observe(done sim.Time, lat sim.Time) {
	if g == nil {
		return
	}
	at := done - g.origin
	if at < 0 {
		at = 0
	}
	for at/g.binWidth >= latGridMaxBins {
		g.rescale()
	}
	bin := int(at / g.binWidth)
	g.counts[latBucket(lat)][bin]++
	if bin+1 > g.used {
		g.used = bin + 1
	}
	g.total++
}

// rescale doubles the bin width, merging adjacent bin pairs in place.
func (g *LatencyGrid) rescale() {
	for _, row := range g.counts {
		for i := 0; i < latGridMaxBins/2; i++ {
			row[i] = row[2*i] + row[2*i+1]
		}
		for i := latGridMaxBins / 2; i < latGridMaxBins; i++ {
			row[i] = 0
		}
	}
	g.binWidth *= 2
	g.used = (g.used + 1) / 2
}

// HeatSnapshot is the exportable heatmap: Counts[row][bin] is the number
// of completions in latency row `row` (rows follow BoundsUs, with one
// trailing overflow row) during time bin `bin` ([Origin + bin*Bin,
// Origin + (bin+1)*Bin) in virtual time). Trailing empty time bins are
// trimmed.
type HeatSnapshot struct {
	OriginNs int64      `json:"origin_ns"`
	BinNs    int64      `json:"bin_ns"`
	BoundsUs []float64  `json:"bounds_us"`
	Counts   [][]uint64 `json:"counts"`
	Total    uint64     `json:"total"`
}

// Snapshot copies the grid's state. Returns nil when nothing was observed.
func (g *LatencyGrid) Snapshot() *HeatSnapshot {
	if g == nil || g.total == 0 {
		return nil
	}
	snap := &HeatSnapshot{
		OriginNs: int64(g.origin),
		BinNs:    int64(g.binWidth),
		BoundsUs: latGridBoundsUs,
		Total:    g.total,
		Counts:   make([][]uint64, len(g.counts)),
	}
	for i, row := range g.counts {
		snap.Counts[i] = append([]uint64(nil), row[:g.used]...)
	}
	return snap
}
