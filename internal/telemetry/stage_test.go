package telemetry

import (
	"runtime"
	"strings"
	"testing"

	"pipette/internal/sim"
)

func TestStageAccountPartition(t *testing.T) {
	a := NewStageAccount()
	a.Begin(100)
	a.Mark(StageSyscall, 110)
	a.Mark(StageNAND, 160)
	a.Mark(StageDMA, 175)
	a.Mark(StageCopyout, 180)
	lat := a.Finish(200) // 20ns unclaimed tail -> other
	snap := a.Snapshot()

	if lat != 100 {
		t.Fatalf("latency = %d, want 100", lat)
	}
	if got := snap.Totals[StageSyscall]; got != 10 {
		t.Errorf("syscall = %d, want 10", got)
	}
	if got := snap.Totals[StageNAND]; got != 50 {
		t.Errorf("nand = %d, want 50", got)
	}
	if got := snap.Totals[StageOther]; got != 20 {
		t.Errorf("other = %d, want 20", got)
	}
	if snap.Sum() != snap.Elapsed {
		t.Errorf("conservation violated: sum %d != elapsed %d", snap.Sum(), snap.Elapsed)
	}
	if a.Gaps() != 0 {
		t.Errorf("gaps = %d, want 0", a.Gaps())
	}
	if snap.Requests != 1 {
		t.Errorf("requests = %d, want 1", snap.Requests)
	}
}

func TestStageAccountOverlappedMarks(t *testing.T) {
	a := NewStageAccount()
	a.Begin(0)
	// Two racing commands: the first completes at 80, the second's
	// intermediate milestones are all before the cursor and claim
	// nothing; only its tail beyond 80 lands in its stage.
	a.Mark(StageNAND, 80)
	a.Mark(StageFirmware, 20) // overlapped, no-op
	a.Mark(StageNAND, 60)     // overlapped, no-op
	a.Mark(StageDMA, 95)
	a.Finish(95)
	snap := a.Snapshot()

	if got := snap.Totals[StageNAND]; got != 80 {
		t.Errorf("nand = %d, want 80", got)
	}
	if got := snap.Totals[StageFirmware]; got != 0 {
		t.Errorf("firmware = %d, want 0", got)
	}
	if got := snap.Totals[StageDMA]; got != 15 {
		t.Errorf("dma = %d, want 15", got)
	}
	if snap.Sum() != 95 || snap.Elapsed != 95 {
		t.Errorf("sum %d, elapsed %d, want 95 both", snap.Sum(), snap.Elapsed)
	}
}

func TestStageAccountReattribute(t *testing.T) {
	a := NewStageAccount()
	a.Begin(0)
	a.Mark(StageSyscall, 10)
	// Fine attempt 10..70 that will be thrown away.
	a.Mark(StageConstruct, 20)
	a.Mark(StageFirmware, 30)
	a.Mark(StageNAND, 55)
	a.Mark(StageDMA, 70)
	a.Reattribute(10, StageRetry)
	a.Mark(StageRetry, 75) // host time detecting the corruption
	// Block-path retry succeeds.
	a.Mark(StageNAND, 130)
	a.Mark(StageCopyout, 140)
	a.Finish(140)
	snap := a.Snapshot()

	if got := snap.Totals[StageSyscall]; got != 10 {
		t.Errorf("syscall = %d, want 10 (reattribute must not touch time before `from`)", got)
	}
	if got := snap.Totals[StageRetry]; got != 65 {
		t.Errorf("retry = %d, want 65", got)
	}
	if got := snap.Totals[StageConstruct] + snap.Totals[StageFirmware] + snap.Totals[StageDMA]; got != 0 {
		t.Errorf("wasted-attempt stages retained %d ns, want 0", got)
	}
	if got := snap.Totals[StageNAND]; got != 55 {
		t.Errorf("nand = %d, want 55", got)
	}
	if snap.Sum() != 140 || a.Gaps() != 0 {
		t.Errorf("sum %d (want 140), gaps %d (want 0)", snap.Sum(), a.Gaps())
	}
}

func TestStageAccountReattributeSplitsStraddler(t *testing.T) {
	a := NewStageAccount()
	a.Begin(0)
	a.Mark(StageNAND, 100)
	a.Reattribute(40, StageRetry)
	a.Finish(100)
	snap := a.Snapshot()

	if got := snap.Totals[StageNAND]; got != 40 {
		t.Errorf("nand = %d, want 40", got)
	}
	if got := snap.Totals[StageRetry]; got != 60 {
		t.Errorf("retry = %d, want 60", got)
	}
	if a.Gaps() != 0 {
		t.Errorf("gaps = %d, want 0", a.Gaps())
	}
}

func TestStageAccountNilSafe(t *testing.T) {
	var a *StageAccount
	a.Begin(0)
	a.Mark(StageNAND, 10)
	a.Reattribute(0, StageRetry)
	if a.Finish(10) != 0 {
		t.Fatal("nil account must be inert")
	}
	a.SetOnFinish(nil)
	if snap := a.Snapshot(); snap.Requests != 0 || snap.Sum() != 0 {
		t.Fatal("nil account snapshot must be empty")
	}
}

func TestStageAccountOnFinishConservation(t *testing.T) {
	a := NewStageAccount()
	checked := 0
	a.SetOnFinish(func(segs []StageSeg, start, end sim.Time) {
		checked++
		var sum sim.Time
		at := start
		for _, s := range segs {
			if s.Start != at {
				t.Errorf("segment gap at %d (start %d)", at, s.Start)
			}
			sum += s.End - s.Start
			at = s.End
		}
		if at != end || sum != end-start {
			t.Errorf("segments sum %d over [%d,%d]", sum, start, end)
		}
	})
	for i := 0; i < 5; i++ {
		base := sim.Time(i * 1000)
		a.Begin(base)
		a.Mark(StageSyscall, base+7)
		a.Mark(StageNAND, base+300)
		a.Mark(StageCopyout, base+310)
		a.Finish(base + 320)
	}
	if checked != 5 {
		t.Fatalf("onFinish ran %d times, want 5", checked)
	}
}

func TestStageWaterfallTable(t *testing.T) {
	a := NewStageAccount()
	a.Begin(0)
	a.Mark(StageSyscall, 1000)
	a.Mark(StageNAND, 51000)
	a.Mark(StageCopyout, 52000)
	a.Finish(52000)

	snap := a.Snapshot()
	out := snap.Waterfall().Render()
	for _, want := range []string{"syscall", "nand", "copyout", "total", "100.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "other") {
		t.Errorf("waterfall shows zero-valued stage 'other':\n%s", out)
	}
}

func TestStageAccountBindRegistry(t *testing.T) {
	a := NewStageAccount()
	reg := NewRegistry()
	a.BindRegistry(reg)
	a.Begin(0)
	a.Mark(StageNAND, 50000)
	a.Finish(50000)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pipette_stage_ns_total{stage="nand"} 50000`,
		"pipette_stage_requests_total 1",
		`pipette_stage_us_count{stage="nand"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStageSnapshotMerge(t *testing.T) {
	a := NewStageAccount()
	a.Begin(0)
	a.Mark(StageNAND, 100)
	a.Finish(100)
	b := NewStageAccount()
	b.Begin(0)
	b.Mark(StageNAND, 50)
	b.Mark(StageDMA, 70)
	b.Finish(70)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Requests != 2 || sa.Elapsed != 170 || sa.Sum() != 170 {
		t.Fatalf("merge: requests %d elapsed %d sum %d", sa.Requests, sa.Elapsed, sa.Sum())
	}
	if sa.Totals[StageNAND] != 150 || sa.Hists[StageNAND].Count() != 2 {
		t.Fatalf("merge: nand total %d count %d", sa.Totals[StageNAND], sa.Hists[StageNAND].Count())
	}
}

// mallocs counts the heap allocations of runs calls of f, after one
// warm-up call.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// fullTail returns a tail recorder whose kept set has filled.
func fullTail(keep int) *TailRecorder {
	r := NewTailRecorder(5, keep)
	segs := []StageSeg{{Start: 0, End: 1}, {Start: 1, End: 2}, {Start: 2, End: 3}}
	for i := 0; i < keep; i++ {
		r.Observe(segs, 0, 3)
	}
	return r
}

// fineHit accounts one fine-cache hit of latency lat at now: Begin, the
// three marks of the hit path and Finish.
func fineHit(a *StageAccount, now, lat sim.Time, cache Res) {
	a.Begin(now)
	a.Mark(StageSyscall, now+1)
	a.MarkRes(StageCache, now+lat-1, cache)
	a.Mark(StageCopyout, now+lat)
	a.Finish(now + lat)
}

// TestStageAccountAllocFree pins a fine-cache hit's instruments — Begin,
// three marks and a Finish that offers the request to a full tail
// recorder — to zero allocations, for rejected and admitted requests alike.
func TestStageAccountAllocFree(t *testing.T) {
	a := NewStageAccount()
	a.SetTail(fullTail(64))
	cache := Intern("host.cache")
	now := sim.Time(0)
	i := 0
	hit := func() {
		lat := sim.Time(5)
		if i%4 == 0 {
			lat += sim.Time(i) // outranks the kept set: an admission
		}
		i++
		fineHit(a, now, lat, cache)
		now += lat
	}
	if n := mallocs(1000, hit); n != 0 {
		t.Fatalf("1000 requests allocated %d times, want 0", n)
	}
	if snap := a.Snapshot(); a.Gaps() != 0 || snap.Sum() != snap.Elapsed {
		t.Fatalf("gaps %d, sum %d, elapsed %d", a.Gaps(), snap.Sum(), snap.Elapsed)
	}
}

// TestReattributeAllocFree drives a fine->block fallback through a stage
// account: the fine attempt's time moves to retry, splitting the segment
// it started in, and the block path completes the request. In steady state
// this allocates nothing.
func TestReattributeAllocFree(t *testing.T) {
	a := NewStageAccount()
	die, dma := Intern("nand.ch0.w0"), Intern("pcie.dma")
	now := sim.Time(0)
	fallback := func() {
		a.Begin(now)
		a.Mark(StageSyscall, now+10)
		a.Mark(StageConstruct, now+20)
		a.MarkRes(StageNAND, now+55, die)
		a.MarkRes(StageDMA, now+70, dma)
		a.Reattribute(now+15, StageRetry) // splits the construct segment
		a.Mark(StageRetry, now+75)
		a.MarkRes(StageNAND, now+130, die)
		a.Mark(StageCopyout, now+140)
		a.Finish(now + 140)
		now += 140
	}
	if n := mallocs(1000, fallback); n != 0 {
		t.Fatalf("1000 fallbacks allocated %d times, want 0", n)
	}
	if snap := a.Snapshot(); snap.Totals[StageRetry] != 1001*60 || snap.Totals[StageConstruct] != 1001*5 || a.Gaps() != 0 {
		t.Fatalf("retry %d, construct %d, gaps %d", snap.Totals[StageRetry], snap.Totals[StageConstruct], a.Gaps())
	}
}
