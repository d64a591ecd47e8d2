package baseline

import "testing"

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
