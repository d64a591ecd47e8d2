package nvme_test

import (
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
)

// testPages is how many logical pages the test controller preloads.
const testPages = 64

// submitter drives a Driver over a small real controller with an HMB
// region: 4 KiB block reads and 128 B fine reads, each at the previous
// command's completion time, cycling over the preloaded pages.
type submitter struct {
	tb     testing.TB
	drv    *nvme.Driver
	region *hmb.Region
	buf    []byte
	fine   []uint64
	now    sim.Time
	i      uint64
}

func newSubmitter(tb testing.TB) *submitter {
	tb.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 16
	cfg.NAND.PagesPerBlock = 32
	ctrl, err := ssd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for lba := 0; lba < testPages; lba++ {
		if err := ctrl.FTL().Preload(ftl.LBA(lba)); err != nil {
			tb.Fatal(err)
		}
	}
	region, err := hmb.New(hmb.Config{DataBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl.EnableHMB(region)
	return &submitter{
		tb:     tb,
		drv:    nvme.NewDriver(ctrl, 64, nvme.DefaultCosts()),
		region: region,
		buf:    make([]byte, ctrl.PageSize()),
		fine:   make([]uint64, 1),
	}
}

func (s *submitter) read4K() {
	comp, err := s.drv.Submit(s.now, nvme.Command{Op: nvme.OpRead, LBA: s.i % testPages, Pages: 1, Data: s.buf})
	if err != nil || !comp.Ok() {
		s.tb.Fatalf("4 KiB read: %+v, %v", comp, err)
	}
	s.now = comp.Done
	s.i++
}

func (s *submitter) fineRead() {
	s.fine[0] = s.i % testPages
	if err := s.region.Info().Push(hmb.InfoRecord{LBA: s.fine[0], ByteOff: 512, ByteLen: 128, Dest: 0}); err != nil {
		s.tb.Fatal(err)
	}
	comp, err := s.drv.Submit(s.now, nvme.Command{Op: nvme.OpFineRead, FineLBAs: s.fine})
	if err != nil || !comp.Ok() {
		s.tb.Fatalf("fine read: %+v, %v", comp, err)
	}
	s.now = comp.Done
	s.i++
}

// TestDriverSubmitAllocFree pins the steady-state command path at zero
// allocations: once the controller is warm, a Driver.Submit through a real
// controller allocates nothing, for a 4 KiB block read and for a fine read
// alike.
func TestDriverSubmitAllocFree(t *testing.T) {
	s := newSubmitter(t)
	for _, c := range []struct {
		name string
		fn   func()
	}{{"4KiB read", s.read4K}, {"fine read", s.fineRead}} {
		for w := 0; w < 2*testPages; w++ {
			c.fn()
		}
		if allocs := testing.AllocsPerRun(500, c.fn); allocs != 0 {
			t.Errorf("%s: Submit allocated %.2f times per command, want 0", c.name, allocs)
		}
	}
}

// BenchmarkDriverSubmit times one command through Driver.Submit against
// the test controller: the ring protocol plus the device's execution of a
// 4 KiB block read, and of a 128 B fine read.
func BenchmarkDriverSubmit(b *testing.B) {
	for _, c := range []struct {
		name string
		fn   func(*submitter)
	}{{"read4k", (*submitter).read4K}, {"fine128", (*submitter).fineRead}} {
		b.Run(c.name, func(b *testing.B) {
			s := newSubmitter(b)
			for w := 0; w < 2*testPages; w++ {
				c.fn(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.fn(s)
			}
		})
	}
}
