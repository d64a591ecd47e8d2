package telemetry

import (
	"errors"
	"fmt"
	"io"

	"pipette/internal/metrics"
	"pipette/internal/sim"
)

// Probe is one sampled time series: Sample is called at each sampling
// instant with the current virtual time and returns the series value.
type Probe struct {
	Name   string
	Sample func(now sim.Time) float64
}

// RateProbe converts a cumulative virtual-time counter — e.g. a resource's
// busy time — into a per-interval utilization fraction in [0,1]: the share
// of virtual time since the previous sample that the counter advanced.
func RateProbe(name string, cum func() sim.Time) Probe {
	var lastV, lastT sim.Time
	return Probe{Name: name, Sample: func(now sim.Time) float64 {
		v := cum()
		dv, dt := v-lastV, now-lastT
		lastV, lastT = v, now
		if dt <= 0 {
			return 0
		}
		f := float64(dv) / float64(dt)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}}
}

// Sampler records every probe at a fixed virtual-time interval. The
// simulation advances in jumps, so callers Tick after each completed
// request; the sampler takes one row the first time the clock crosses each
// interval boundary. Not safe for concurrent use.
type Sampler struct {
	interval sim.Time
	probes   []Probe
	next     sim.Time
	times    []sim.Time
	rows     [][]float64
}

// NewSampler builds a sampler over the probes.
func NewSampler(interval sim.Time, probes []Probe) (*Sampler, error) {
	if interval <= 0 {
		return nil, errors.New("telemetry: sampling interval must be positive")
	}
	if len(probes) == 0 {
		return nil, errors.New("telemetry: sampler needs at least one probe")
	}
	return &Sampler{interval: interval, probes: probes, next: interval}, nil
}

// Tick samples all probes if virtual time has crossed the next interval
// boundary since the last sample. Multiple boundaries crossed in one jump
// yield a single row — the simulator has no intermediate state to report.
func (s *Sampler) Tick(now sim.Time) {
	if now < s.next {
		return
	}
	row := make([]float64, len(s.probes))
	for i := range s.probes {
		row[i] = s.probes[i].Sample(now)
	}
	s.times = append(s.times, now)
	s.rows = append(s.rows, row)
	steps := (now-s.next)/s.interval + 1
	s.next += steps * s.interval
}

// Rows reports sampled rows so far.
func (s *Sampler) Rows() int { return len(s.rows) }

// Series reports the probe names, in column order.
func (s *Sampler) Series() []string {
	out := make([]string, len(s.probes))
	for i := range s.probes {
		out[i] = s.probes[i].Name
	}
	return out
}

// Table renders the samples as a metrics table: a time_us column followed
// by one column per series.
func (s *Sampler) Table() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"time_us"}, s.Series()...)}
	for i, row := range s.rows {
		cells := make([]string, 0, len(row)+1)
		cells = append(cells, fmt.Sprintf("%.3f", s.times[i].Micros()))
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%.6g", v))
		}
		t.AddRow(cells...)
	}
	return t
}

// WriteCSV writes the sampled series as RFC 4180 CSV.
func (s *Sampler) WriteCSV(w io.Writer) error {
	_, err := io.WriteString(w, s.Table().CSV())
	return err
}
