package pipette

import (
	"errors"
	"strings"
	"testing"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// attachConservationCheck asserts, for every finished request, that the
// attributed segments are contiguous and partition [start, end] exactly —
// the conservation invariant, checked per request rather than only on the
// aggregate sums.
func attachConservationCheck(t *testing.T, sys *System) {
	t.Helper()
	sys.Stages().SetOnFinish(func(segs []telemetry.StageSeg, start, end sim.Time) {
		at := start
		var sum sim.Time
		for i, seg := range segs {
			if seg.Start != at {
				t.Errorf("segment %d starts at %v, want %v (gap)", i, seg.Start, at)
			}
			if seg.End <= seg.Start {
				t.Errorf("segment %d is empty or inverted: [%v, %v)", i, seg.Start, seg.End)
			}
			sum += seg.End - seg.Start
			at = seg.End
		}
		if at != end {
			t.Errorf("segments end at %v, want request end %v", at, end)
		}
		if sum != end-start {
			t.Errorf("stage sum %v != end-to-end latency %v", sum, end-start)
		}
	})
}

// checkAggregateConservation asserts the run-level invariants: zero
// contiguity violations and stage totals summing exactly to the summed
// end-to-end latencies.
func checkAggregateConservation(t *testing.T, sys *System) {
	t.Helper()
	sa := sys.Stages()
	if g := sa.Gaps(); g != 0 {
		t.Fatalf("Gaps() = %d, want 0", g)
	}
	if snap := sa.Snapshot(); snap.Sum() != snap.Elapsed {
		t.Fatalf("stage sum %v != elapsed %v", snap.Sum(), snap.Elapsed)
	}
}

// TestStageConservationMixedWorkload drives fine reads, large block reads,
// writes, and fsync through a fault-free system and requires exact stage
// conservation on every request, zero residual ("other") time, and the
// stages a healthy request path must visit.
func TestStageConservationMixedWorkload(t *testing.T) {
	sys, err := New(Options{CapacityBytes: 64 << 20, PageCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	attachConservationCheck(t, sys)
	if err := sys.CreateFile("data", 8<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", FineGrained|ReadWrite)
	if err != nil {
		t.Fatal(err)
	}

	small := make([]byte, 128)
	large := make([]byte, 256<<10)
	for i := 0; i < 32; i++ {
		if _, err := f.ReadAt(small, int64(i)*8192); err != nil {
			t.Fatalf("fine read %d: %v", i, err)
		}
	}
	// Re-read the same ranges: fine-cache hits must conserve too.
	for i := 0; i < 32; i++ {
		if _, err := f.ReadAt(small, int64(i)*8192); err != nil {
			t.Fatalf("fine re-read %d: %v", i, err)
		}
	}
	if _, err := f.ReadAt(large, 4<<20); err != nil {
		t.Fatalf("block read: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := f.WriteAt(large[:8192], int64(i)*131072); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	checkAggregateConservation(t, sys)
	sa := sys.Stages().Snapshot()
	for _, st := range []telemetry.Stage{
		telemetry.StageSyscall, telemetry.StageCache, telemetry.StageQueue,
		telemetry.StageConstruct, telemetry.StageRing, telemetry.StageFirmware,
		telemetry.StageNAND, telemetry.StageDMA, telemetry.StageWriteback,
		telemetry.StageCopyout,
	} {
		if sa.Totals[st] == 0 {
			t.Errorf("stage %v never attributed any time", st)
		}
	}
	if other := sa.Totals[telemetry.StageOther]; other != 0 {
		t.Errorf("residual (other) time = %v, want 0: some interval went unclaimed", other)
	}
	if sa.Totals[telemetry.StageRetry] != 0 {
		t.Error("retry time attributed on a fault-free run")
	}

	rep := sys.Report()
	out := rep.String()
	if !strings.Contains(out, "stage waterfall") || !strings.Contains(out, "resource utilization") {
		t.Fatalf("report misses stage/utilization sections:\n%s", out)
	}
	if rep.Resources == nil || len(rep.Resources.Resources) == 0 {
		t.Fatal("report carries no resource snapshot")
	}
	var nandBusy, dmaBusy int64
	for _, r := range rep.Resources.Resources {
		switch {
		case strings.HasPrefix(r.Name, "nand.ch"):
			nandBusy += r.BusyNs
		case r.Name == "pcie.dma":
			dmaBusy = r.BusyNs
		}
	}
	if nandBusy == 0 || dmaBusy == 0 {
		t.Fatalf("resource occupancy not recorded: nand=%d dma=%d", nandBusy, dmaBusy)
	}
}

// TestStageConservationECCRetry arms bit errors on every NAND page read.
// The retry ladder's re-senses must land in the retry stage, and every
// request — including the ones that surface ErrUncorrectable — must still
// conserve exactly.
func TestStageConservationECCRetry(t *testing.T) {
	sys, err := New(Options{CapacityBytes: 64 << 20, FaultProfile: "nand.read:1", FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	attachConservationCheck(t, sys)
	if err := sys.CreateFile("data", 4<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var failed int
	for page := int64(0); page < 256; page++ {
		if _, err := f.ReadAt(buf, page*4096); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("page %d: unexpected error %v", page, err)
			}
			failed++
		}
	}
	rep := sys.Report()
	if rep.Faults == nil || rep.Faults.ECCRetries == 0 {
		t.Fatal("profile injected no ECC retries")
	}
	if failed == 0 {
		t.Fatal("no uncorrectable reads at full injection; error-path conservation unexercised")
	}
	checkAggregateConservation(t, sys)
	sa := sys.Stages().Snapshot()
	if sa.Totals[telemetry.StageRetry] == 0 {
		t.Fatal("ECC ladder charged no retry-stage time")
	}
	if sa.Totals[telemetry.StageRetry] <= sa.Totals[telemetry.StageNAND] {
		// Every read faults, and each ladder step costs a full re-read; the
		// wasted time must dominate the single first sense.
		t.Errorf("retry %v <= nand %v: ladder time not reattributed",
			sa.Totals[telemetry.StageRetry], sa.Totals[telemetry.StageNAND])
	}
}

// TestStageConservationFineFallback arms Info-Area ring corruption: fine
// reads are rejected by the device and re-served via block I/O. The wasted
// fine attempt must be re-labeled retry, and the whole request — fine
// attempt plus block service — must still sum to its end-to-end latency.
func TestStageConservationFineFallback(t *testing.T) {
	sys, err := New(Options{CapacityBytes: 64 << 20, FaultProfile: "hmb.ring:1#4"})
	if err != nil {
		t.Fatal(err)
	}
	attachConservationCheck(t, sys)
	if err := sys.CreateFile("data", 8<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i := 0; i < 8; i++ {
		if _, err := f.ReadAt(buf, int64(i)*40960); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	rep := sys.Report()
	if rep.Faults == nil || rep.Faults.RingFallbacks != 4 {
		t.Fatalf("RingFallbacks = %v, want 4", rep.Faults)
	}
	checkAggregateConservation(t, sys)
	sa := sys.Stages().Snapshot()
	if sa.Totals[telemetry.StageRetry] == 0 {
		t.Fatal("fallback attempts charged no retry-stage time")
	}
	// The fallen-back requests still completed via the block path.
	if sa.Totals[telemetry.StageNAND] == 0 || sa.Totals[telemetry.StageDMA] == 0 {
		t.Fatal("block re-serve left no nand/dma time")
	}
}
