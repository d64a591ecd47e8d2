package baseline

import "testing"

// NewStack must build the NVMe transport the config names — every caller
// (engines, kv cells, cluster shards, the facade) sizes it through
// QueuePairs and Depth, with 0 pairs meaning the default 4. A ring of
// Depth slots keeps one empty, so Depth-1 commands are usable per pair.
func TestNewStackHonoursQueueGeometry(t *testing.T) {
	for _, tc := range []struct{ pairs, depth, wantPairs int }{
		{1, 256, 1},
		{4, 64, 4},
		{2, 32, 2},
		{0, 128, 4},
	} {
		cfg := smallStackConfig(1 << 20)
		cfg.QueuePairs, cfg.Depth = tc.pairs, tc.depth
		st, err := NewStack(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Drv.Queues()
		if q.Pairs() != tc.wantPairs || q.Depth() != tc.depth-1 {
			t.Errorf("QueuePairs %d, Depth %d: built %d pairs of usable depth %d",
				tc.pairs, tc.depth, q.Pairs(), q.Depth())
		}
	}
}
