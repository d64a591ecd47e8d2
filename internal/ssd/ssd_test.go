package ssd

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 16
	cfg.NAND.PagesPerBlock = 32
	return cfg
}

func newCtrl(t testing.TB) *Controller {
	t.Helper()
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func preload(t testing.TB, c *Controller, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func expected(c *Controller, lba uint64, off, n int) []byte {
	ppa, err := c.FTL().Translate(ftl.LBA(lba))
	if err != nil {
		panic(err)
	}
	buf := make([]byte, n)
	nand.ExpectedContent(ppa, off, buf)
	return buf
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBufferPages = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative write buffer accepted")
	}
	cfg = testConfig()
	cfg.NAND.PageSize = 2 * CMBBytes
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "CMB") {
		t.Errorf("page larger than the CMB: err = %v", err)
	}
}

func TestBlockReadRoundTrip(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	buf := make([]byte, 4*c.PageSize())
	cmd := nvme.Command{Op: nvme.OpRead, LBA: 2, Pages: 4, Data: buf}
	comp := c.Execute(0, &cmd)
	if !comp.Ok() {
		t.Fatalf("completion %+v", comp)
	}
	for i := 0; i < 4; i++ {
		want := expected(c, uint64(2+i), 0, c.PageSize())
		got := buf[i*c.PageSize() : (i+1)*c.PageSize()]
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content mismatch", i)
		}
	}
	if comp.BytesMoved != uint64(4*c.PageSize()) {
		t.Fatalf("BytesMoved = %d", comp.BytesMoved)
	}
	if comp.Done <= 0 {
		t.Fatal("no virtual time consumed")
	}
}

func TestBlockReadDiscardIsTimingNeutral(t *testing.T) {
	// A discard mask changes only which bytes the simulator builds: twin
	// controllers serving the same 8-page read, one with every page but one
	// discarded, must agree on the completion, the NAND counters, the stage
	// totals and every resource's busy time.
	const pages, kept = 8, 5
	type run struct {
		comp nvme.Completion
		nand nand.Stats
		sa   *telemetry.StageAccount
		rt   *resource.Tracker
		data []byte
	}
	read := func(discard uint64) run {
		c := newCtrl(t)
		preload(t, c, 16)
		r := run{sa: telemetry.NewStageAccount(), rt: resource.NewTracker(), data: make([]byte, pages*c.PageSize())}
		c.SetStages(r.sa)
		c.SetResources(r.rt)
		r.sa.Begin(0)
		r.comp = c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 3, Pages: pages, Data: r.data, Discard: discard})
		r.sa.Finish(r.comp.Done)
		r.nand = c.Array().Stats()
		if !r.comp.Ok() {
			t.Fatalf("discard %#x: %+v", discard, r.comp)
		}
		ps := c.PageSize()
		want := make([]byte, ps)
		if err := c.PeekLBA(3+kept, 0, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.data[kept*ps:(kept+1)*ps], want) {
			t.Fatalf("discard %#x: kept page differs from PeekLBA", discard)
		}
		return r
	}
	all := read(0)
	one := read((1<<pages - 1) &^ (1 << kept))
	if one.comp != all.comp {
		t.Fatalf("completion %+v, without discard %+v", one.comp, all.comp)
	}
	if one.nand != all.nand {
		t.Fatalf("nand stats %+v, without discard %+v", one.nand, all.nand)
	}
	ps := len(one.data) / pages
	for i := 0; i < pages; i++ {
		if i != kept && bytes.Count(one.data[i*ps:(i+1)*ps], []byte{0}) != ps {
			t.Fatalf("discarded page %d was written", i)
		}
	}
	if got, want := one.sa.Snapshot().Totals, all.sa.Snapshot().Totals; got != want {
		t.Fatalf("stage totals %v, without discard %v", got, want)
	}
	for i := 0; i < all.rt.Len(); i++ {
		if a, o := all.rt.At(i), one.rt.At(i); o.Busy() != a.Busy() || o.Ops() != a.Ops() {
			t.Fatalf("%s busy %v in %d ops, without discard %v in %d", a.Name(), o.Busy(), o.Ops(), a.Busy(), a.Ops())
		}
	}

	// The mask addresses 64 pages; a longer command cannot carry one.
	const long = nvme.DiscardPages + 1
	c := newCtrl(t)
	preload(t, c, long)
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, Pages: long, Data: make([]byte, long*c.PageSize()), Discard: 1})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("%d-page read with a discard mask: status %v, want InvalidCommand", long, comp.Status)
	}
}

func TestBlockReadParallelChannels(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	// FTL stripes sequential LBAs channel-major, so a 2-page read uses both
	// channels: its completion should be far less than twice a 1-page read.
	one := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: make([]byte, c.PageSize())})
	c2, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c2.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	two := c2.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 2, Data: make([]byte, 2*c.PageSize())})
	if !one.Ok() || !two.Ok() {
		t.Fatal("reads failed")
	}
	tR := nand.ReadPageTime
	if two.Done-one.Done >= tR {
		t.Fatalf("2-page read %v vs 1-page %v: no channel overlap", two.Done, one.Done)
	}
}

func TestBlockReadErrors(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	// Unmapped LBA.
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 100, Pages: 1, Data: make([]byte, c.PageSize())})
	if comp.Status != nvme.StatusUnmapped {
		t.Fatalf("status = %v, want Unmapped", comp.Status)
	}
	// Beyond capacity.
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1 << 40, Pages: 1, Data: make([]byte, c.PageSize())})
	if comp.Status != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v, want LBAOutOfRange", comp.Status)
	}
	// Short buffer.
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 2, Data: make([]byte, 10)})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("status = %v, want InvalidCommand", comp.Status)
	}
}

func TestWriteThenRead(t *testing.T) {
	c := newCtrl(t)
	ps := c.PageSize()
	data := make([]byte, 2*ps)
	for i := range data {
		data[i] = byte(i % 251)
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 10, Pages: 2, Data: data})
	if !w.Ok() {
		t.Fatalf("write: %+v", w)
	}
	buf := make([]byte, 2*ps)
	r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 10, Pages: 2, Data: buf})
	if !r.Ok() {
		t.Fatalf("read: %+v", r)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read != written")
	}
	st := c.Stats()
	if st.WriteCmds != 1 || st.BlockReadCmds != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesFromHost != uint64(2*ps) || st.BytesToHost != uint64(2*ps) {
		t.Fatalf("traffic %+v", st)
	}
}

// TestWriteProgramsPagesTogether: an 8-page write on a device of 8 dies
// programs its pages together, so it completes in under two program times
// after its DMA (one page after another would take eight).
func TestWriteProgramsPagesTogether(t *testing.T) {
	cfg := testConfig()
	cfg.NAND.Channels = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := c.PageSize()
	data := make([]byte, 8*ps)
	for i := range data {
		data[i] = byte(i % 253)
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 20, Pages: 8, Data: data})
	if !w.Ok() {
		t.Fatalf("write: %+v", w)
	}
	dmaDone := FirmwareBlockOverhead + dmaTime(len(data))
	if took := w.Done - dmaDone; took >= 2*nand.ProgramTime {
		t.Errorf("8-page write took %v after its DMA, want < %v", took, 2*nand.ProgramTime)
	}
	buf := make([]byte, len(data))
	if r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 20, Pages: 8, Data: buf}); !r.Ok() {
		t.Fatalf("read: %+v", r)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read != written")
	}
}

func TestTrimAndFlush(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	for lba := uint64(1); lba <= 2; lba++ {
		if err := c.Trim(lba); err != nil {
			t.Fatalf("trim %d: %v", lba, err)
		}
	}
	if err := c.Trim(c.LogicalPages()); !errors.Is(err, ftl.ErrBadLBA) {
		t.Fatalf("trim past capacity: err %v, want ErrBadLBA", err)
	}
	r := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 1, Pages: 1, Data: make([]byte, c.PageSize())})
	if r.Status != nvme.StatusUnmapped {
		t.Fatalf("read after trim: %v", r.Status)
	}
	f := c.Execute(0, &nvme.Command{Op: nvme.OpFlush})
	if !f.Ok() {
		t.Fatalf("flush: %+v", f)
	}
}

func TestUnknownOpcode(t *testing.T) {
	c := newCtrl(t)
	comp := c.Execute(0, &nvme.Command{Op: nvme.Opcode(99)})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("status = %v", comp.Status)
	}
}

func newHMB(t testing.TB) *hmb.Region {
	t.Helper()
	r, err := hmb.New(hmb.Config{DataBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFineReadRequiresHMB(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("fine read without HMB: %v", comp.Status)
	}
}

func TestFineReadExtractsRange(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t)
	c.EnableHMB(region)

	const dest, off, n = 512, 1000, 128
	if err := region.Info().Push(hmb.InfoRecord{LBA: 3, ByteOff: off, ByteLen: n, Dest: dest}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{3}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	if comp.BytesMoved != n {
		t.Fatalf("BytesMoved = %d, want %d (only demanded bytes cross PCIe)", comp.BytesMoved, n)
	}
	got := make([]byte, n)
	if err := region.ReadAt(dest, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected(c, 3, off, n)) {
		t.Fatal("extracted bytes wrong")
	}
	if region.Info().Pending() != 0 {
		t.Fatal("info record not consumed (head not bumped)")
	}
	if st := c.Stats(); st.FineReadCmds != 1 || st.RangesExtract != 1 || st.BytesToHost != n {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestSmartCounters(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 8)
	// One block read, one write, one fine read.
	buf := make([]byte, c.PageSize())
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf}); !comp.Ok() {
		t.Fatalf("read: %+v", comp)
	}
	data := make([]byte, c.PageSize())
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 20, Pages: 1, Data: data}); !comp.Ok() {
		t.Fatalf("write: %+v", comp)
	}
	region := newHMB(t)
	c.EnableHMB(region)
	if err := region.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: 0, ByteLen: 64, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1}}); !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	// Flush so the buffered write reaches NAND as a program.
	if comp := c.Execute(0, &nvme.Command{Op: nvme.OpFlush}); !comp.Ok() {
		t.Fatalf("flush: %+v", comp)
	}

	s := c.Stats()
	if s.BlockReadCmds != 1 || s.WriteCmds != 1 || s.FineReadCmds != 1 {
		t.Fatalf("command counters: %+v", s)
	}
	if s.BytesToHost != uint64(c.PageSize())+64 || s.BytesFromHost != uint64(c.PageSize()) {
		t.Fatalf("byte counters: read=%d written=%d", s.BytesToHost, s.BytesFromHost)
	}
	if a := c.Array().Stats(); a.Reads < 2 || a.Programs < 1 {
		t.Fatalf("nand counters: %+v", a)
	}
}

func TestFineReadCrossPageRange(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t)
	c.EnableHMB(region)
	ps := c.PageSize()

	// Range starts 32 B before the end of page 1 and extends 96 B into
	// page 2.
	off, n := ps-32, 128
	if err := region.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: off, ByteLen: n, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1, 2}})
	if !comp.Ok() {
		t.Fatalf("fine read: %+v", comp)
	}
	got := make([]byte, n)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	want := append(expected(c, 1, off, 32), expected(c, 2, 0, 96)...)
	if !bytes.Equal(got, want) {
		t.Fatal("cross-page extraction wrong")
	}
}

func TestFineReadValidation(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	region := newHMB(t)
	c.EnableHMB(region)

	// No pending info record.
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("no-record status = %v", comp.Status)
	}
	// Record/command LBA mismatch.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 9, ByteOff: 0, ByteLen: 8, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("mismatch status = %v", comp.Status)
	}
	// Range overruns the page list.
	if err := region.Info().Push(hmb.InfoRecord{LBA: 0, ByteOff: 4000, ByteLen: 200, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	comp = c.Execute(0, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{0}})
	if comp.Status != nvme.StatusInvalidCommand {
		t.Fatalf("overrun status = %v", comp.Status)
	}
}

func TestFineReadFasterThanBlockRead(t *testing.T) {
	// The core premise: a 128 B fine read must complete well before a 4 KiB
	// block read of the same page (no full-page DMA, leaner firmware path).
	c := newCtrl(t)
	preload(t, c, 2)
	region := newHMB(t)
	c.EnableHMB(region)

	block := c.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: make([]byte, c.PageSize())})
	if err := region.Info().Push(hmb.InfoRecord{LBA: 1, ByteOff: 0, ByteLen: 128, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	fine := c.Execute(block.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{1}})
	if !block.Ok() || !fine.Ok() {
		t.Fatal("reads failed")
	}
	blockLat := block.Done
	fineLat := fine.Done - block.Done
	if fineLat >= blockLat {
		t.Fatalf("fine read %v not faster than block read %v", fineLat, blockLat)
	}
}

func TestMMIOReadCosts(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	slot, done, err := c.LoadToCMB(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 8 bytes: one transaction.
	buf8 := make([]byte, 8)
	t8, err := c.MMIORead(done, slot, 0, buf8)
	if err != nil {
		t.Fatal(err)
	}
	if t8-done != MMIOTransaction {
		t.Fatalf("8B MMIO took %v, want %v", t8-done, MMIOTransaction)
	}
	// 4096 bytes: 512 transactions — linear in size.
	buf4k := make([]byte, 4096)
	t4k, err := c.MMIORead(done, slot, 0, buf4k)
	if err != nil {
		t.Fatal(err)
	}
	if t4k-done != 512*MMIOTransaction {
		t.Fatalf("4KiB MMIO took %v, want %v", t4k-done, 512*MMIOTransaction)
	}
	if !bytes.Equal(buf4k, expected(c, 0, 0, 4096)) {
		t.Fatal("MMIO data wrong")
	}
	// Odd size rounds transactions up.
	buf9 := make([]byte, 9)
	t9, _ := c.MMIORead(done, slot, 0, buf9)
	if t9-done != 2*MMIOTransaction {
		t.Fatalf("9B MMIO took %v, want 2 txns", t9-done)
	}
}

func TestDMAReadFromCMB(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	slot, done, err := c.LoadToCMB(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	end, err := c.DMAReadFromCMB(done, slot, 100, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, expected(c, 1, 100, 256)) {
		t.Fatal("DMA data wrong")
	}
	if end <= done {
		t.Fatal("DMA consumed no time")
	}
	// DMA of small payload beats MMIO of a large one but costs setup.
	if end-done < DMASetup {
		t.Fatal("DMA cheaper than its setup cost")
	}
}

func TestCMBRangeChecks(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 2)
	buf := make([]byte, 8)
	if _, err := c.MMIORead(0, 0, 0, buf); err == nil {
		t.Error("read from unloaded CMB slot accepted")
	}
	slot, done, err := c.LoadToCMB(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MMIORead(done, slot, c.PageSize()-4, buf); err == nil {
		t.Error("overrun MMIO accepted")
	}
	if _, err := c.DMAReadFromCMB(done, -1, 0, buf); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestCMBSlotRotation(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := CMBBytes / cfg.NAND.PageSize
	for i := 0; i <= slots; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	s0, _, _ := c.LoadToCMB(0, 0)
	s1, _, _ := c.LoadToCMB(0, 1)
	for i := 2; i < slots; i++ {
		c.LoadToCMB(0, uint64(i))
	}
	s2, _, _ := c.LoadToCMB(0, uint64(slots))
	if s0 == s1 || s0 != s2 {
		t.Fatalf("slots %d,%d,%d: expected rotation over %d slots", s0, s1, s2, slots)
	}
}

func TestDriverIntegration(t *testing.T) {
	c := newCtrl(t)
	preload(t, c, 4)
	d := nvme.NewDriver(c, 32, nvme.DefaultCosts())
	buf := make([]byte, c.PageSize())
	comp, err := d.Submit(0, nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Ok() {
		t.Fatalf("completion %+v", comp)
	}
	if !bytes.Equal(buf, expected(c, 0, 0, c.PageSize())) {
		t.Fatal("driver read wrong data")
	}
	if comp.Done <= nvme.DoorbellCost+nvme.FetchCost+nvme.CompletionCost {
		t.Fatal("transport costs missing")
	}
}

func BenchmarkFineRead128(b *testing.B) {
	cfg := testConfig()
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := c.FTL().Preload(ftl.LBA(i)); err != nil {
			b.Fatal(err)
		}
	}
	region, err := hmb.New(hmb.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c.EnableHMB(region)
	var now sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(i % 64)
		if err := region.Info().Push(hmb.InfoRecord{LBA: lba, ByteOff: 0, ByteLen: 128, Dest: 0}); err != nil {
			b.Fatal(err)
		}
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{lba}})
		if !comp.Ok() {
			b.Fatalf("%+v", comp)
		}
		now = comp.Done
	}
}
