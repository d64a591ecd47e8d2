package bench

import (
	"reflect"
	"strings"
	"testing"

	"pipette/internal/baseline"
	"pipette/internal/fault"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// TestOpenLoopConservationAndQueueStage checks the open-loop runner's
// accounting: the stage attribution still conserves exactly (stage sum ==
// summed arrival-to-completion latencies), admission delay lands in the
// queue stage, and the snapshot covers every request.
func TestOpenLoopConservationAndQueueStage(t *testing.T) {
	s := TinyScale()
	e, err := newEngine(4, qdepthConfig(s)) // Pipette, contention on
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewSynthetic(workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4])
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.NewPoisson(2_000_000, 0xa221) // far past saturation
	if err != nil {
		t.Fatal(err)
	}
	const requests = 800
	res, err := RunOpenLoop(e, gen, requests, OpenLoopOpts{Arrivals: arr, Depth: 4, Offered: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.Sum() != res.Stages.Elapsed {
		t.Fatalf("stage sum %v != elapsed %v: conservation broken", res.Stages.Sum(), res.Stages.Elapsed)
	}
	if res.Stages.Totals[telemetry.StageQueue] == 0 {
		t.Fatal("overloaded open loop attributed no time to the queue stage")
	}
	if res.Snapshot.Ops != requests {
		t.Fatalf("snapshot covers %d ops, want %d", res.Snapshot.Ops, requests)
	}
	if res.Hist.Count() != requests {
		t.Fatalf("latency histogram has %d samples, want %d", res.Hist.Count(), requests)
	}
	if res.Arrivals != "poisson" || res.Depth != 4 || res.Offered != 2_000_000 {
		t.Fatalf("open-loop metadata wrong: %+v", res)
	}
}

// zeroGap is an arrival process that delivers every request at time zero.
type zeroGap struct{}

func (zeroGap) Name() string   { return "zero-gap" }
func (zeroGap) Next() sim.Time { return 0 }

// TestClosedAndOpenLoopDoSameDeviceWork replays one mix-E stream twice on
// fresh Pipette engines: closed loop, and open loop at depth 1 with every
// request arriving at time zero. Depth 1 dispatches each request the moment
// its predecessor completes, exactly as the closed loop does, so the two
// schedules must do the same device work in the same virtual time. Only the
// queue stage differs: the open run waits from time zero to dispatch, so its
// queue total is the gap between the two runs' summed latencies.
func TestClosedAndOpenLoopDoSameDeviceWork(t *testing.T) {
	s := TinyScale()
	mixE := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4]
	const requests = 600
	replay := func(opts RunOpts) *Result {
		t.Helper()
		e, err := newEngine(4, qdepthConfig(s)) // Pipette
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewSynthetic(mixE)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, gen, requests, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	closed := replay(RunOpts{})
	open := replay(RunOpts{Arrivals: zeroGap{}, Depth: 1})

	if closed.Snapshot.Elapsed != open.Snapshot.Elapsed {
		t.Errorf("elapsed: closed %d ns, open %d ns", closed.Snapshot.Elapsed, open.Snapshot.Elapsed)
	}
	if closed.Snapshot.IO != open.Snapshot.IO {
		t.Errorf("device traffic: closed %+v, open %+v", closed.Snapshot.IO, open.Snapshot.IO)
	}
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		if st != telemetry.StageQueue && closed.Stages.Totals[st] != open.Stages.Totals[st] {
			t.Errorf("stage %v: closed %v, open %v", st, closed.Stages.Totals[st], open.Stages.Totals[st])
		}
	}
	if closed.Stages.Totals[telemetry.StageQueue] != 0 {
		t.Errorf("closed loop queued for %v", closed.Stages.Totals[telemetry.StageQueue])
	}
	if q, gap := open.Stages.Totals[telemetry.StageQueue], open.Hist.Sum()-closed.Hist.Sum(); q != gap || q == 0 {
		t.Errorf("open queue stage %v, want the summed-latency gap %v (> 0)", q, gap)
	}

	e, err := newEngine(4, qdepthConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewSynthetic(mixE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, gen, requests, RunOpts{Warmup: 10, Arrivals: zeroGap{}}); err == nil {
		t.Error("Run accepted a warmup on an open-loop replay")
	}
}

// doneRecorder is an engine that records each request's completion time.
type doneRecorder struct {
	baseline.Engine
	done []sim.Time
}

func (d *doneRecorder) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	done, err := d.Engine.ReadAt(now, buf, off)
	d.done = append(d.done, done)
	return done, err
}

func (d *doneRecorder) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	done, err := d.Engine.WriteAt(now, data, off)
	d.done = append(d.done, done)
	return done, err
}

// everyThirdWrite turns every third request of a generator into a write.
type everyThirdWrite struct {
	workload.Generator
	n int
}

func (g *everyThirdWrite) Next() workload.Request {
	req := g.Generator.Next()
	g.n++
	req.Write = g.n%3 == 0
	return req
}

// gapList is an arrival process that replays a fixed list of gaps.
type gapList []sim.Time

func (g *gapList) Name() string { return "gap-list" }

func (g *gapList) Next() sim.Time {
	gap := (*g)[0]
	*g = (*g)[1:]
	return gap
}

// TestClosedLoopMatchesOpenLoopAtPriorCompletion pins the closed loop's
// direct dispatch against the open loop's event path. One mixed read/write
// stream replays closed loop, then open loop at depth 1 with each request
// arriving at the moment the closed loop completed its predecessor. Every
// request then dispatches at the same virtual time on both paths, so the
// whole Result must match: snapshot, histogram, tail exemplars and blame,
// heatmap, stages and resources. Only the open-loop metadata differs.
func TestClosedLoopMatchesOpenLoopAtPriorCompletion(t *testing.T) {
	s := TinyScale()
	mixC := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0x5eed)[2]
	const requests = 900
	for _, idx := range []int{0, 4} { // block I/O and Pipette, contention on
		replay := func(opts RunOpts) (*Result, []sim.Time) {
			t.Helper()
			e, err := newEngine(idx, qdepthConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewSynthetic(mixC)
			if err != nil {
				t.Fatal(err)
			}
			rec := &doneRecorder{Engine: e}
			res, err := Run(rec, &everyThirdWrite{Generator: gen}, requests, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, rec.done
		}
		closed, done := replay(RunOpts{})
		if len(done) != requests {
			t.Fatalf("closed loop completed %d requests, want %d", len(done), requests)
		}
		gaps := make(gapList, requests)
		var prev sim.Time
		for i := 1; i < requests; i++ {
			at := max(prev, done[i-1]) // the closed loop never dispatches back in time
			gaps[i], prev = at-prev, at
		}
		open, _ := replay(RunOpts{Arrivals: &gaps, Depth: 1})
		if open.Depth != 1 || open.Arrivals != "gap-list" {
			t.Fatalf("open-loop metadata wrong: depth %d, arrivals %q", open.Depth, open.Arrivals)
		}
		open.Offered, open.Depth, open.Arrivals = 0, 0, ""

		for _, f := range []struct {
			name         string
			closed, open any
		}{
			{"snapshot", closed.Snapshot, open.Snapshot},
			{"histogram", closed.Hist, open.Hist},
			{"tail", closed.Tail, open.Tail},
			{"heatmap", closed.Heat, open.Heat},
			{"stages", closed.Stages, open.Stages},
			{"resources", closed.Resources, open.Resources},
		} {
			if !reflect.DeepEqual(f.closed, f.open) {
				t.Errorf("%s: %s differ:\nclosed %+v\nopen   %+v", closed.Name, f.name, f.closed, f.open)
			}
		}
		if !reflect.DeepEqual(closed, open) {
			t.Errorf("%s: results differ:\nclosed %+v\nopen   %+v", closed.Name, closed, open)
		}
		if closed.Snapshot.Ops != requests || closed.Tail == nil || len(closed.Tail.TopK) == 0 {
			t.Errorf("%s: the replay lost requests or captured no tail: %+v", closed.Name, closed.Snapshot)
		}
	}
}

// TestOpenLoopCurveMonotoneWithKnee sweeps one configuration across
// ascending offered rates and requires the textbook open-system shape:
// achieved throughput and mean latency both non-decreasing in offered
// load, sub-saturation rates achieving what they offer, and a visible
// saturation knee before the sweep ends.
func TestOpenLoopCurveMonotoneWithKnee(t *testing.T) {
	s := TinyScale()
	rates := []float64{20_000, 80_000, 320_000, 1_280_000, 5_120_000}
	var achieved, meanUs []float64
	for _, rate := range rates {
		e, err := newEngine(4, qdepthConfig(s)) // Pipette
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewSynthetic(workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[4])
		if err != nil {
			t.Fatal(err)
		}
		arr, err := workload.NewPoisson(rate, 0xa221)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOpenLoop(e, gen, 1_500, OpenLoopOpts{Arrivals: arr, Depth: 16, Offered: rate})
		if err != nil {
			t.Fatal(err)
		}
		achieved = append(achieved, res.Snapshot.ThroughputOpsPerSec())
		meanUs = append(meanUs, res.Hist.Mean().Micros())
	}
	const slack = 0.02 // identical-seed noise across different rates
	for i := 1; i < len(rates); i++ {
		if achieved[i] < achieved[i-1]*(1-slack) {
			t.Errorf("throughput not monotone: %.0f op/s at rate %.0f after %.0f at rate %.0f",
				achieved[i], rates[i], achieved[i-1], rates[i-1])
		}
		if meanUs[i] < meanUs[i-1]*(1-slack) {
			t.Errorf("latency not monotone: %.2fµs at rate %.0f after %.2fµs at rate %.0f",
				meanUs[i], rates[i], meanUs[i-1], rates[i-1])
		}
	}
	if achieved[0] < qdepthKneeFrac*rates[0] {
		t.Errorf("lowest rate already saturated: achieved %.0f of offered %.0f", achieved[0], rates[0])
	}
	last := len(rates) - 1
	if achieved[last] >= qdepthKneeFrac*rates[last] {
		t.Errorf("no saturation knee in sweep: achieved %.0f of offered %.0f", achieved[last], rates[last])
	}
}

// TestQDepthDeterministicAcrossWorkers runs the qdepth experiment at -j 1
// and -j 8 — plain and with a fault profile armed — and requires the
// stdout tables, the export bundle, and the rendered report HTML to be
// byte-identical: the open-loop event engine must not leak scheduling
// order anywhere.
func TestQDepthDeterministicAcrossWorkers(t *testing.T) {
	faultProf, err := fault.ParseProfile("nand.read:rber*20")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prof fault.Profile
	}{
		{"plain", fault.Profile{}},
		{"faults-armed", faultProf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := TinyScale()
			s.QDepths = []int{1, 8}
			s.QDepthRates = []float64{100_000, 1_600_000}
			s.QDepthRequests = 600
			s.Fault = tc.prof
			out, _, html, _ := exportAcrossWorkers(t, "qdepth", s, 1, 8)
			if !strings.Contains(out, "saturation knees") {
				t.Error("qdepth output misses the knee summary")
			}
			if !strings.Contains(html, "Throughput vs latency (open loop)") {
				t.Error("report HTML misses the throughput-vs-latency section")
			}
		})
	}
}
