package vfs

import (
	"bytes"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/nand"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// syncOverhead bounds the block-layer, driver, firmware and DMA costs of a
// few one-page write commands: far below one program time.
const syncOverhead = 100 * sim.Microsecond

// dirtyPages writes n full pages of distinct content to every other page
// of f from page 3 on and returns the time the writes finished and their
// payloads.
func dirtyPages(t testing.TB, f *File, n int) (sim.Time, [][]byte) {
	t.Helper()
	var now sim.Time
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(0x40 + i)}, 4096)
		_, done, err := f.WriteAt(now, payloads[i], int64(3+2*i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return now, payloads
}

// checkSynced asserts every payload reached the device and no page of the
// cache is left dirty.
func checkSynced(t *testing.T, v *VFS, f *File, payloads [][]byte) {
	t.Helper()
	if n := v.PageCache().DirtyCount(); n != 0 {
		t.Errorf("%d dirty pages remain after Sync", n)
	}
	for i, want := range payloads {
		if !bytes.Equal(oracle(t, v, f, int64(3+2*i)*4096, 4096), want) {
			t.Errorf("page %d: device content not updated by Sync", 3+2*i)
		}
	}
}

// recordSync captures the stage segments of the next request sa finishes.
func recordSync(sa *telemetry.StageAccount) *[]telemetry.StageSeg {
	var segs []telemetry.StageSeg
	sa.SetOnFinish(func(s []telemetry.StageSeg, start, end sim.Time) {
		segs = append(segs[:0], s...)
	})
	return &segs
}

// checkWriteback asserts segs tile [t0, done] with writeback time only.
func checkWriteback(t *testing.T, sa *telemetry.StageAccount, segs []telemetry.StageSeg, t0, done sim.Time) {
	t.Helper()
	at := t0
	for _, s := range segs {
		if s.Start != at || s.Stage != telemetry.StageWriteback {
			t.Fatalf("segment %+v after %v: want contiguous writeback from %v to %v", s, at, t0, done)
		}
		at = s.End
	}
	if at != done {
		t.Fatalf("segments end at %v, Sync at %v", at, done)
	}
	if g := sa.Gaps(); g != 0 {
		t.Fatalf("Gaps() = %d", g)
	}
}

// TestSyncIssuesPagesTogether: Sync issues every dirty page's writeback at
// once, so N pages on N dies take about one program time, not N; all of
// the call's time is writeback, and the bytes reach the device.
func TestSyncIssuesPagesTogether(t *testing.T) {
	sa := telemetry.NewStageAccount()
	v := newTestVFS(t, 128, 2, 2, sa)
	f := createPreloaded(t, v, "data", 1<<20)
	t0, payloads := dirtyPages(t, f, 4)
	segs := recordSync(sa)
	done, err := f.Sync(t0)
	if err != nil {
		t.Fatal(err)
	}
	if took := done - t0; took < nand.ProgramTime || took >= 2*nand.ProgramTime+syncOverhead {
		t.Errorf("Sync of 4 pages on 4 dies took %v, want [%v, %v)",
			took, nand.ProgramTime, 2*nand.ProgramTime+syncOverhead)
	}
	checkWriteback(t, sa, *segs, t0, done)
	checkSynced(t, v, f, payloads)
	if v.IO().BytesWritten != 4*4096 {
		t.Errorf("BytesWritten = %d, want %d", v.IO().BytesWritten, 4*4096)
	}
}

// TestSyncWritebackFaultRetry: a writeback that fails once is re-issued
// from its own completion, and Sync waits for that retry as well as for
// the other pages, which still program beside it.
func TestSyncWritebackFaultRetry(t *testing.T) {
	sa := telemetry.NewStageAccount()
	v := newTestVFS(t, 128, 2, 2, sa)
	p, err := fault.ParseProfile("vfs.writeback:1#1")
	if err != nil {
		t.Fatal(err)
	}
	v.SetInjector(p.NewInjector(1))
	f := createPreloaded(t, v, "data", 1<<20)
	t0, payloads := dirtyPages(t, f, 4)
	segs := recordSync(sa)
	done, err := f.Sync(t0)
	if err != nil {
		t.Fatal(err)
	}
	if n := v.WritebackRetries(); n != 1 {
		t.Fatalf("WritebackRetries = %d, want 1", n)
	}
	// The retry issues when the first attempt completes, a program time
	// in; one page after another would take five program times.
	if took := done - t0; took < 2*nand.ProgramTime || took >= 3*nand.ProgramTime+syncOverhead {
		t.Errorf("Sync of 4 pages with one retry took %v, want [%v, %v)",
			took, 2*nand.ProgramTime, 3*nand.ProgramTime+syncOverhead)
	}
	checkWriteback(t, sa, *segs, t0, done)
	checkSynced(t, v, f, payloads)
}

// BenchmarkSync dirties a 256-page file and syncs it per iteration on a
// device of 64 dies, reporting the virtual time each Sync takes, after one
// round has grown the page buffers the rest reuse.
func BenchmarkSync(b *testing.B) {
	v := newTestVFS(b, 512, 8, 8, nil)
	f := createPreloaded(b, v, "data", 256*4096)
	data := bytes.Repeat([]byte{0x5a}, 256*4096)
	var now, synced sim.Time
	round := func() {
		_, t0, err := f.WriteAt(now, data, 0)
		if err != nil {
			b.Fatal(err)
		}
		if now, err = f.Sync(t0); err != nil {
			b.Fatal(err)
		}
		synced += now - t0
	}
	round()
	synced = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(synced.Micros()/float64(b.N), "virtual-us/sync")
}
