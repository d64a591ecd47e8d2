package nvme_test

import (
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
)

// TestDriverSubmitAllocFree pins the steady-state command path at zero
// allocations: once the in-flight pool is warm, a Driver.Submit through a
// real controller allocates nothing, for a 4 KiB block read and for a fine
// read alike.
func TestDriverSubmitAllocFree(t *testing.T) {
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 16
	cfg.NAND.PagesPerBlock = 32
	ctrl, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
	for lba := 0; lba < pages; lba++ {
		if err := ctrl.FTL().Preload(ftl.LBA(lba)); err != nil {
			t.Fatal(err)
		}
	}
	region, err := hmb.New(hmb.Config{DataBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.EnableHMB(region)
	drv := nvme.NewDriver(ctrl, 64, nvme.DefaultCosts())

	buf := make([]byte, ctrl.PageSize())
	fine := make([]uint64, 1)
	var now sim.Time
	var i uint64
	read4K := func() {
		comp, err := drv.Submit(now, nvme.Command{Op: nvme.OpRead, LBA: i % pages, Pages: 1, Data: buf})
		if err != nil || !comp.Ok() {
			t.Fatalf("4 KiB read: %+v, %v", comp, err)
		}
		now = comp.Done
		i++
	}
	fineRead := func() {
		fine[0] = i % pages
		if err := region.Info().Push(hmb.InfoRecord{LBA: fine[0], ByteOff: 512, ByteLen: 128, Dest: 0}); err != nil {
			t.Fatal(err)
		}
		comp, err := drv.Submit(now, nvme.Command{Op: nvme.OpFineRead, FineLBAs: fine})
		if err != nil || !comp.Ok() {
			t.Fatalf("fine read: %+v, %v", comp, err)
		}
		now = comp.Done
		i++
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"4KiB read", read4K}, {"fine read", fineRead}} {
		for w := 0; w < 2*pages; w++ {
			c.fn()
		}
		if allocs := testing.AllocsPerRun(500, c.fn); allocs != 0 {
			t.Errorf("%s: Submit allocated %.2f times per command, want 0", c.name, allocs)
		}
	}
}
