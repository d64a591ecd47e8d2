package bench

import (
	"strings"
	"testing"

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
