package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"pipette/internal/baseline"
	"pipette/internal/sim"
	"pipette/internal/workload"
)

// stream is a synthetic request sequence generated from the seed before the
// clock starts. Each request is one uint32: the page index shifted left by
// one, with the low bit set for a small read. It replays as a
// workload.Generator, so bench.Run and bench.RunOpenLoop consume it as they
// would a live generator, without generating anything in the timed loop.
type stream struct {
	reqs     []uint32
	small    int
	large    int
	pageSize int64
	fileSize int64
	pos      int
}

// newStream draws n requests from the Table 1 mix cfg.
func newStream(cfg workload.SyntheticConfig, n int) (*stream, error) {
	gen, err := workload.NewSynthetic(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.FileSize/int64(cfg.PageSize) > math.MaxUint32>>1 {
		return nil, fmt.Errorf("file of %d pages does not fit the packed stream", cfg.FileSize/int64(cfg.PageSize))
	}
	s := &stream{
		reqs: make([]uint32, n), small: cfg.SmallSize, large: cfg.LargeSize,
		pageSize: int64(cfg.PageSize), fileSize: cfg.FileSize,
	}
	for i := range s.reqs {
		r := gen.Next()
		packed := uint32(r.Off/s.pageSize) << 1
		if r.Size == cfg.SmallSize && cfg.SmallSize != cfg.LargeSize {
			packed |= 1
		}
		s.reqs[i] = packed
	}
	return s, nil
}

// Name implements workload.Generator.
func (s *stream) Name() string { return "replay" }

// FileSize implements workload.Generator.
func (s *stream) FileSize() int64 { return s.fileSize }

// Next implements workload.Generator. Replays never ask for more requests
// than were drawn; if one did, the stream would wrap.
func (s *stream) Next() workload.Request {
	r := s.reqs[s.pos%len(s.reqs)]
	s.pos++
	size := s.large
	if r&1 != 0 {
		size = s.small
	}
	return workload.Request{Off: int64(r>>1) * s.pageSize, Size: size}
}

// arrivals replays pre-drawn absolute arrival times as a workload.Arrivals.
// restart makes the next gap count from virtual zero, which is where each
// bench.RunOpenLoop call starts its event clock: the measured replay then
// resumes exactly where the warm-up's arrivals stopped.
type arrivals struct {
	at   []sim.Time
	pos  int
	last sim.Time
}

// newArrivals draws n Poisson arrival times.
func newArrivals(rate float64, seed uint64, n int) (*arrivals, error) {
	p, err := workload.NewPoisson(rate, seed)
	if err != nil {
		return nil, err
	}
	a := &arrivals{at: make([]sim.Time, n)}
	var t sim.Time
	for i := range a.at {
		t += p.Next()
		a.at[i] = t
	}
	return a, nil
}

func (a *arrivals) restart() { a.last = 0 }

// Name implements workload.Arrivals.
func (a *arrivals) Name() string { return "poisson" }

// Next implements workload.Arrivals.
func (a *arrivals) Next() sim.Time {
	t := a.at[a.pos]
	a.pos++
	gap := t - a.last
	a.last = t
	return gap
}

// meter measures the timed phases of a run on the host: wall time in
// equal chunks, heap allocations, and each request's virtual latency. A run
// is several rounds, each on a fresh system, so begin and end bracket one
// round's timed phase. In a traced round the meter also records a CPU
// profile over exactly that phase.
type meter struct {
	chunk   int
	lat     []uint32  // virtual ns per measured request, all rounds
	chunkNs []float64 // wall ns per request of each full chunk, all rounds
	scales  []float64 // reference-clock factor measured after each chunk (calibrate.go)
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	rssMiB  float64 // largest resident set after a timed phase, garbage freed

	open       bool
	roundStart int
	start      time.Time
	last       time.Time
	mem        runtime.MemStats

	// onBegin snapshots layer counters (and, traced, installs the tracer)
	// just before the clock starts.
	onBegin func()
	// profiling records a CPU profile of each timed phase into profiles.
	profiling bool
	profiles  []*bytes.Buffer
	err       error
}

// chunksPerRound is how many slices each round's timed phase is cut into;
// the host ns/op is their median, so a slice disturbed by a neighbour on a
// shared machine does not move it.
const chunksPerRound = 16

func newMeter(perRound, rounds int) *meter {
	chunk := perRound / chunksPerRound
	if chunk < 1 {
		chunk = 1
	}
	return &meter{
		chunk:   chunk,
		lat:     make([]uint32, 0, perRound*rounds),
		chunkNs: make([]float64, 0, rounds*(perRound/chunk+1)),
		scales:  make([]float64, 0, rounds*(perRound/chunk+1)),
	}
}

func (m *meter) begin() {
	if m.onBegin != nil {
		m.onBegin()
	}
	if m.profiling {
		buf := new(bytes.Buffer)
		if err := pprof.StartCPUProfile(buf); err != nil {
			m.err = fmt.Errorf("cpu profile: %w", err)
		} else {
			m.profiles = append(m.profiles, buf)
		}
	}
	runtime.ReadMemStats(&m.mem)
	// Unsigned wrap-around: subtracting now and adding at end leaves the
	// round's delta.
	m.mallocs -= m.mem.Mallocs
	m.bytes -= m.mem.TotalAlloc
	m.open = true
	m.roundStart = len(m.lat)
	m.start = time.Now()
	m.last = m.start
}

// observe records one measured request's virtual latency.
func (m *meter) observe(d sim.Time) {
	if d < 0 || d > math.MaxUint32 {
		if m.err == nil {
			m.err = fmt.Errorf("request latency %v outside the recorded range", d)
		}
		d = 0
	}
	m.lat = append(m.lat, uint32(d))
	if (len(m.lat)-m.roundStart)%m.chunk == 0 {
		ns := float64(time.Since(m.last).Nanoseconds()) / float64(m.chunk)
		m.chunkNs = append(m.chunkNs, ns)
		m.scales = append(m.scales, hostScale())
		m.last = time.Now() // the calibration is not the next chunk's work
	}
}

func (m *meter) end() {
	if !m.open {
		return
	}
	m.open = false
	m.wall += time.Since(m.start)
	m.onBegin = nil // it holds the round's system, garbage once the round ends
	runtime.ReadMemStats(&m.mem)
	m.mallocs += m.mem.Mallocs
	m.bytes += m.mem.TotalAlloc
	if m.profiling {
		pprof.StopCPUProfile()
	}
	// The round's system is still in use by its caller; with garbage
	// collected and returned to the OS, what stays resident is its
	// footprint. A high-water mark would instead move with where GC cycles
	// happened to fall.
	debug.FreeOSMemory()
	rss, err := residentMiB()
	if err != nil && m.err == nil {
		m.err = err
	}
	m.rssMiB = max(m.rssMiB, rss)
}

// hostNsPerOp is the median over chunks of reference-host ns per request;
// wallNsPerOp the same on the wall clock.
func (m *meter) hostNsPerOp() float64 {
	ref := make([]float64, len(m.chunkNs))
	for i, ns := range m.chunkNs {
		ref[i] = ns * m.scales[i]
	}
	return median(ref)
}

func (m *meter) wallNsPerOp() float64 { return median(m.chunkNs) }

// meanNsPerOp is the timed phases' wall ns per request.
func (m *meter) meanNsPerOp() float64 {
	return float64(m.wall.Nanoseconds()) / float64(len(m.lat))
}

func (m *meter) allocsPerOp() float64 { return float64(m.mallocs) / float64(len(m.lat)) }

func (m *meter) bytesPerOp() float64 { return float64(m.bytes) / float64(len(m.lat)) }

// latencySum is the exact total of recorded latencies.
func latencySum(lat []uint32) sim.Time {
	var s sim.Time
	for _, l := range lat {
		s += sim.Time(l)
	}
	return s
}

// quantilesUs sorts the recorded latencies in place and returns the exact
// nearest-rank quantiles in microseconds.
func (m *meter) quantilesUs(qs ...float64) []float64 {
	slices.Sort(m.lat)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = sim.Time(nearestRank(m.lat, q)).Micros()
	}
	return out
}

// nearestRank returns the q-quantile of sorted: the smallest value with at
// least a q share of the sample at or below it.
func nearestRank(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// probe wraps the engine under test. Counting calls lets it tell warm-up
// from measurement inside one bench.Run; it starts the meter at the first
// measured call, records every measured call's latency, and checks every
// verifyEvery'th measured read against the engine's oracle. arrivals, when
// set, holds the measured requests' open-loop arrival times: the k-th call
// is the k-th arrival (FIFO admission, nothing rejected), and latency runs
// from arrival rather than from dispatch.
type probe struct {
	baseline.Engine
	warmup   int
	calls    int
	m        *meter
	arrivals []sim.Time
	want     []byte

	// first and last bound the measured phase in virtual time.
	first, last sim.Time
}

const verifyEvery = 1024

func (p *probe) measured(now sim.Time) (int, bool) {
	k := p.calls - p.warmup
	p.calls++
	if k < 0 {
		return k, false
	}
	if k == 0 {
		p.m.begin()
		p.first = now
	}
	return k, true
}

func (p *probe) finish(k int, now, done sim.Time) {
	start := now
	if p.arrivals != nil {
		start = p.arrivals[k]
	}
	p.m.observe(done - start)
	if done > p.last {
		p.last = done
	}
}

// ReadAt implements baseline.Engine.
func (p *probe) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	k, on := p.measured(now)
	done, err := p.Engine.ReadAt(now, buf, off)
	if !on || err != nil {
		return done, err
	}
	p.finish(k, now, done)
	if k%verifyEvery == 0 {
		want := p.want[:len(buf)]
		if err := p.Oracle(want, off); err != nil {
			return done, err
		}
		if !bytes.Equal(buf, want) {
			return done, fmt.Errorf("%s returned wrong bytes at %d (+%d)", p.Name(), off, len(buf))
		}
	}
	return done, nil
}

// WriteAt implements baseline.Engine.
func (p *probe) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	k, on := p.measured(now)
	done, err := p.Engine.WriteAt(now, data, off)
	if on && err == nil {
		p.finish(k, now, done)
	}
	return done, err
}
