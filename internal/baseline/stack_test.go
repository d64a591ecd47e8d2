package baseline

import (
	"bytes"
	"testing"

	"pipette/internal/extfs"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

// NewStack must build the NVMe transport the config names — every caller
// (engines, kv cells, cluster shards, the facade) sizes it through
// QueuePairs, with 0 pairs meaning the default 4. A ring of QueueDepth
// slots keeps one empty, so QueueDepth-1 commands are usable per pair.
func TestNewStackHonoursQueueGeometry(t *testing.T) {
	for _, tc := range []struct{ pairs, wantPairs int }{
		{1, 1},
		{4, 4},
		{2, 2},
		{0, 4},
	} {
		cfg := smallStackConfig(1 << 20)
		cfg.QueuePairs = tc.pairs
		st, err := NewStack(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Drv.Queues()
		if q.Pairs() != tc.wantPairs || q.Depth() != QueueDepth-1 {
			t.Errorf("QueuePairs %d: built %d pairs of usable depth %d",
				tc.pairs, q.Pairs(), q.Depth())
		}
	}
}

// syncStack returns a stack over smallStackConfig, with a 64-page volatile
// write buffer in the controller when buffered, and a file on it with
// four dirty pages, none adjacent.
func syncStack(t *testing.T, buffered bool) (*Stack, *vfs.File, sim.Time) {
	t.Helper()
	cfg := smallStackConfig(1 << 20)
	if buffered {
		cfg.SSD.WriteBufferPages = 64
	}
	st, err := NewStack(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.V.Create("synced", 64*4096, extfs.CreateOpts{}, vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for i := 0; i < 4; i++ {
		_, done, err := f.WriteAt(now, bytes.Repeat([]byte{byte(1 + i)}, 4096), int64(2*i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return st, f, now
}

// TestSyncDrainsWriteBuffer: with the controller's volatile write buffer
// on, Sync ends with a flush, so none of the file's pages is left in
// controller DRAM when it returns, and all of its time, the flush's
// included, is writeback.
func TestSyncDrainsWriteBuffer(t *testing.T) {
	st, f, now := syncStack(t, true)
	var segs []telemetry.StageSeg
	st.SA.SetOnFinish(func(s []telemetry.StageSeg, start, end sim.Time) {
		segs = append(segs[:0], s...)
	})
	done, err := f.Sync(now)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Ctrl.BufferedPages(); n != 0 {
		t.Errorf("%d pages left in the volatile write buffer after Sync", n)
	}
	if n := st.Ctrl.Stats().PagesDestaged; n != 4 {
		t.Errorf("Sync destaged %d pages, want 4", n)
	}
	at := now
	for _, s := range segs {
		if s.Start != at || s.Stage != telemetry.StageWriteback {
			t.Fatalf("segment %+v after %v: want contiguous writeback from %v to %v", s, at, now, done)
		}
		at = s.End
	}
	if at != done {
		t.Errorf("segments end at %v, Sync at %v", at, done)
	}
}

// TestSyncCommandCount: Sync sends one write per dirty page, plus exactly
// one flush when the controller has a volatile write buffer, and nothing
// more without one.
func TestSyncCommandCount(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		st, f, now := syncStack(t, buffered)
		before, _ := st.Drv.Stats()
		if _, err := f.Sync(now); err != nil {
			t.Fatal(err)
		}
		after, _ := st.Drv.Stats()
		want := uint64(4)
		if buffered {
			want++
		}
		if got := after - before; got != want {
			t.Errorf("buffered=%v: Sync sent %d commands, want %d", buffered, got, want)
		}
		if w := st.Blk.Stats().WriteCommands; w != 4 {
			t.Errorf("buffered=%v: %d write commands, want 4", buffered, w)
		}
	}
}
