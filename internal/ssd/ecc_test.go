package ssd

import (
	"bytes"
	"errors"
	"testing"

	"pipette/internal/fault"
	"pipette/internal/hmb"
	"pipette/internal/nvme"
	"pipette/internal/sim"
)

// armed builds a controller with a fault injector from the given profile.
func armed(t testing.TB, profile string, seed uint64) *Controller {
	t.Helper()
	c := newCtrl(t)
	p, err := fault.ParseProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(p.NewInjector(seed))
	return c
}

func TestECCRetrySlowsButCorrects(t *testing.T) {
	// Severity spectrum above the uncorrectable fraction: every hit
	// recovers after retries. ByteOff-free block read of one page.
	c := armed(t, "nand.read:1#1", 7)
	c.cfg.ECCUncorrectableFrac = 0 // force the recoverable branch
	preload(t, c, 2)

	clean := newCtrl(t)
	preload(t, clean, 2)

	buf := make([]byte, c.PageSize())
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: buf})
	if !comp.Ok() {
		t.Fatalf("faulted read failed: %+v", comp)
	}
	ref := make([]byte, clean.PageSize())
	compRef := clean.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: ref})
	if !compRef.Ok() {
		t.Fatalf("clean read failed: %+v", compRef)
	}
	if !bytes.Equal(buf, expected(c, 1, 0, c.PageSize())) {
		t.Fatal("recovered read returned wrong bytes")
	}
	f := c.Faults()
	if f.ECCRetries == 0 {
		t.Fatal("no retry charged for an injected bit-error burst")
	}
	if f.Uncorrectable != 0 {
		t.Fatalf("unexpected uncorrectable: %+v", f)
	}
	if comp.Done <= compRef.Done {
		t.Fatalf("retry did not cost time: faulted %v <= clean %v", comp.Done, compRef.Done)
	}
}

func TestECCUncorrectable(t *testing.T) {
	c := armed(t, "nand.read:1#1", 7)
	c.cfg.ECCUncorrectableFrac = 1 // every hit exhausts the ladder
	preload(t, c, 2)

	buf := make([]byte, c.PageSize())
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if comp.Ok() {
		t.Fatal("uncorrectable page read succeeded")
	}
	if comp.Status != nvme.StatusMediaError {
		t.Fatalf("status = %v, want MediaError", comp.Status)
	}
	if !errors.Is(comp.Status.Err(), nvme.ErrUncorrectable) {
		t.Fatal("MediaError does not map to ErrUncorrectable")
	}
	f := c.Faults()
	if f.Uncorrectable != 1 {
		t.Fatalf("Uncorrectable = %d, want 1", f.Uncorrectable)
	}
	// The full ladder is still charged before giving up.
	if f.ECCRetries != ECCRetrySteps {
		t.Fatalf("ECCRetries = %d, want full ladder %d", f.ECCRetries, ECCRetrySteps)
	}
}

func TestFineReadRingCorruption(t *testing.T) {
	c := armed(t, "hmb.ring:1#1", 7)
	preload(t, c, 4)
	region := newHMB(t)
	c.EnableHMB(region)
	region.Info().SetInjector(c.inj)

	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: 100, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if comp.Status != nvme.StatusCorruptRing {
		t.Fatalf("status = %v, want CorruptRing", comp.Status)
	}
	if region.Info().Pending() != 0 {
		t.Fatal("corrupt record wedged the ring (head not advanced)")
	}
	if c.Faults().RingCorruptions != 1 {
		t.Fatalf("RingCorruptions = %d, want 1", c.Faults().RingCorruptions)
	}

	// The injection budget (#1) is spent: the next fine read is clean.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: 100, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(comp.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if !comp.Ok() {
		t.Fatalf("post-budget fine read failed: %+v", comp)
	}
	got := make([]byte, 64)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected(c, 3, 100, 64)) {
		t.Fatal("post-corruption fine read returned wrong bytes")
	}
}

func TestFineReadDMACorruptionDetectable(t *testing.T) {
	c := armed(t, "nvme.dma:1#1", 7)
	preload(t, c, 4)
	region := newHMB(t)
	c.EnableHMB(region)

	const dest, off, n = 256, 500, 96
	if err := region.Info().Push(hmb.InfoRecord{LBA: 2, ByteOff: off, ByteLen: n, Dest: dest}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{2}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	got := make([]byte, n)
	if err := region.ReadAt(dest, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, expected(c, 2, off, n)) {
		t.Fatal("payload not corrupted at p=1")
	}
	// The host-side validation contract: the device-computed checksum
	// disagrees with the landed bytes, so the host detects the corruption.
	if fault.Sum32(got) == comp.PayloadSum {
		t.Fatal("corruption not detectable from PayloadSum")
	}
	if c.Faults().DMACorruptions != 1 {
		t.Fatalf("DMACorruptions = %d, want 1", c.Faults().DMACorruptions)
	}
}

func TestProgramRetryRemaps(t *testing.T) {
	c := armed(t, "nand.program:1#1", 7)
	data := bytes.Repeat([]byte{0xAB}, c.PageSize())

	clean := newCtrl(t)
	compRef := clean.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: append([]byte(nil), data...)})
	if !compRef.Ok() {
		t.Fatalf("clean write: %+v", compRef)
	}

	comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: data})
	if !comp.Ok() {
		t.Fatalf("faulted write: %+v", comp)
	}
	if c.Faults().ProgramRetries != 1 {
		t.Fatalf("ProgramRetries = %d, want 1", c.Faults().ProgramRetries)
	}
	if comp.Done <= compRef.Done {
		t.Fatal("program retry did not cost time")
	}
	// The rewritten page reads back correctly.
	buf := make([]byte, c.PageSize())
	rcomp := c.Execute(comp.Done, &nvme.Command{Op: nvme.OpRead, LBA: 5, Pages: 1, Data: buf})
	if !rcomp.Ok() {
		t.Fatalf("read-back: %+v", rcomp)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read-back after program retry returned wrong bytes")
	}
}

// TestOverwriteChurnReadsBack: under injected NAND read faults, every
// mapped LBA of a device churned by overwrites, trims and GC reads back its
// last write through the ECC retry ladder, and flash content is held for
// mapped pages only.
func TestOverwriteChurnReadsBack(t *testing.T) {
	c := armed(t, "nand.read:0.3", 11)
	c.cfg.ECCUncorrectableFrac = 0 // every injected error recovers
	fl := c.FTL()
	ps := c.PageSize()
	working := fl.LogicalPages() * 3 / 4
	rng := sim.NewRNG(5)
	last := map[uint64]byte{}
	var now sim.Time
	for i := 0; i < int(c.Array().Config().TotalPages())*3; i++ {
		lba := rng.Uint64n(working)
		if i%16 == 15 {
			if err := c.Trim(lba); err != nil {
				t.Fatalf("trim %d: %v", lba, err)
			}
			delete(last, lba)
			continue
		}
		data := bytes.Repeat([]byte{byte(i)}, ps)
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: lba, Pages: 1, Data: data})
		if !comp.Ok() {
			t.Fatalf("write %d: %+v", lba, comp)
		}
		now = comp.Done
		last[lba] = byte(i)
	}
	if fl.Stats().GCWrites == 0 {
		t.Fatal("GC relocated nothing")
	}
	if err := fl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for lba, want := range last {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpRead, LBA: lba, Pages: 1, Data: buf})
		if !comp.Ok() {
			t.Fatalf("read %d: %+v", lba, comp)
		}
		now = comp.Done
		if !bytes.Equal(buf, bytes.Repeat([]byte{want}, ps)) {
			t.Fatalf("lba %d does not hold its last write %d", lba, want)
		}
	}
	if c.Faults().ECCRetries == 0 {
		t.Fatal("no ECC retries charged")
	}
	if got := c.Array().ContentPages(); got != len(last) {
		t.Fatalf("%d pages hold content, %d LBAs mapped", got, len(last))
	}
}

// BenchmarkBlockReadNoFaults guards the acceptance criterion that the Nop
// injector adds zero allocations to the read hot path.
func BenchmarkBlockReadNoFaults(b *testing.B) {
	c := newCtrl(b)
	preload(b, c, 8)
	buf := make([]byte, c.PageSize())
	cmd := nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := c.Execute(0, &cmd); !comp.Ok() {
			b.Fatal(comp.Status)
		}
	}
}
