package ssd_test

import (
	"testing"

	"pipette/internal/baseline"
	"pipette/internal/extfs"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/vfs"
)

// Only the 2B-SSD engines use the CMB, so a Pipette stack — fine reads,
// block reads, writes and a sync — never allocates its 4 MiB. The first
// LoadToCMB does.
func TestPipetteStackNeverAllocatesCMB(t *testing.T) {
	const size = 4 << 20
	cfg := baseline.DefaultStackConfig(size)
	cfg.SetCaches(64, 1<<20)
	st, err := baseline.NewStack(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.V.Create("data", size, extfs.CreateOpts{Preload: true}, vfs.ReadWrite|vfs.FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	buf := make([]byte, 4096)
	for i := 0; i < 512; i++ {
		n := 128
		if i%8 == 0 {
			n = 4096 // the block path
		}
		if now, err = f.ReadFull(now, buf[:n], int64(i)*40_961%(size-4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, now, err = f.WriteAt(now, buf[:512], 8192); err != nil {
		t.Fatal(err)
	}
	if now, err = f.Sync(now); err != nil {
		t.Fatal(err)
	}
	if st.Core.Stats().FineReads == 0 {
		t.Fatal("setup: no fine reads")
	}
	if ssd.CMBAllocated(st.Ctrl) {
		t.Fatal("a Pipette stack allocated the CMB")
	}
	if _, _, err := st.Ctrl.LoadToCMB(now, 0); err != nil {
		t.Fatal(err)
	}
	if !ssd.CMBAllocated(st.Ctrl) {
		t.Fatal("LoadToCMB did not allocate the CMB")
	}
}
