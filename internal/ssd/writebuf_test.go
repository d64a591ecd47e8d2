package ssd

import (
	"bytes"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/sim"
)

func bufferedCtrl(t testing.TB, bufPages int) *Controller {
	t.Helper()
	cfg := testConfig()
	cfg.WriteBufferPages = bufPages
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteBufferAcksWithoutProgram(t *testing.T) {
	buffered := bufferedCtrl(t, 32)
	inline := newCtrl(t)
	ps := buffered.PageSize()
	data := make([]byte, ps)

	bc := buffered.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 1, Data: data})
	ic := inline.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 1, Data: data})
	if !bc.Ok() || !ic.Ok() {
		t.Fatal("writes failed")
	}
	// Buffered ack hides tPROG (hundreds of microseconds).
	if bc.Done >= ic.Done {
		t.Fatalf("buffered write %v not faster than inline %v", bc.Done, ic.Done)
	}
	if bc.Done >= 100*sim.Microsecond {
		t.Fatalf("buffered ack %v should be DMA-bound", bc.Done)
	}
	if buffered.BufferedPages() != 1 {
		t.Fatalf("BufferedPages = %d", buffered.BufferedPages())
	}
	// Nothing programmed yet.
	if buffered.Array().Stats().Programs != 0 {
		t.Fatal("buffered write programmed NAND before destage")
	}
}

func TestWriteBufferReadCoherence(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	for i := range data {
		data[i] = byte(i * 3)
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 5, Pages: 1, Data: data})
	if !w.Ok() {
		t.Fatal(w)
	}
	// Block read sees the buffered content.
	buf := make([]byte, ps)
	r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 5, Pages: 1, Data: buf})
	if !r.Ok() || !bytes.Equal(buf, data) {
		t.Fatal("block read did not see buffered write")
	}
	// Fine read sees it too.
	region, err := hmb.New(hmb.Config{DataBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableHMB(region)
	if err := region.Info().Push(hmb.InfoRecord{LBA: 5, ByteOff: 100, ByteLen: 32, Dest: 0}); err != nil {
		t.Fatal(err)
	}
	fr := c.Execute(r.Done, &nvme.Command{Op: nvme.OpFineRead, FineLBAs: []uint64{5}})
	if !fr.Ok() {
		t.Fatalf("fine read: %+v", fr)
	}
	got := make([]byte, 32)
	if err := region.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:132]) {
		t.Fatal("fine read did not see buffered write")
	}
	// CMB load sees it.
	slot, done, err := c.LoadToCMB(fr.Done, 5)
	if err != nil {
		t.Fatal(err)
	}
	cmbBuf := make([]byte, 64)
	if _, err := c.MMIORead(done, slot, 0, cmbBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmbBuf, data[:64]) {
		t.Fatal("CMB load did not see buffered write")
	}
	// Oracle sees it.
	peek := make([]byte, 16)
	if err := c.PeekLBA(5, 100, peek); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(peek, data[100:116]) {
		t.Fatal("oracle did not see buffered write")
	}
}

func TestWriteBufferDestagesAtHighWater(t *testing.T) {
	c := bufferedCtrl(t, 8)
	ps := c.PageSize()
	data := make([]byte, ps)
	var now sim.Time
	for i := 0; i < 20; i++ {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i), Pages: 1, Data: data})
		if !comp.Ok() {
			t.Fatalf("write %d: %+v", i, comp)
		}
		now = comp.Done
		if c.BufferedPages() > 9 {
			t.Fatalf("buffer exceeded high-water mark: %d", c.BufferedPages())
		}
	}
	if c.Stats().PagesDestaged == 0 {
		t.Fatal("no background destage happened")
	}
	// Destaged pages are readable from NAND after buffer eviction.
	buf := make([]byte, ps)
	r := c.Execute(now, &nvme.Command{Op: nvme.OpRead, LBA: 0, Pages: 1, Data: buf})
	if !r.Ok() {
		t.Fatalf("read of destaged page: %+v", r)
	}
}

func TestFlushDrainsBuffer(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	var now sim.Time
	for i := 0; i < 5; i++ {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i), Pages: 1, Data: data})
		now = comp.Done
	}
	if c.BufferedPages() != 5 {
		t.Fatalf("BufferedPages = %d", c.BufferedPages())
	}
	fl := c.Execute(now, &nvme.Command{Op: nvme.OpFlush})
	if !fl.Ok() {
		t.Fatalf("flush: %+v", fl)
	}
	if c.BufferedPages() != 0 {
		t.Fatal("flush left buffered pages")
	}
	// Flush is synchronous: it pays the program time.
	if fl.Done-now < 100*sim.Microsecond {
		t.Fatalf("flush of 5 pages took only %v", fl.Done-now)
	}
	// All five pages now live on flash via the FTL.
	for i := 0; i < 5; i++ {
		if !c.FTL().IsMapped(ftl.LBA(i)) {
			t.Fatalf("lba %d not mapped after flush", i)
		}
	}
}

// A flush programs every buffered page at once: pages striped over
// distinct dies program in parallel, so 8 pages on 8 dies drain in about
// one tPROG rather than eight.
func TestFlushProgramsPagesTogether(t *testing.T) {
	cfg := testConfig()
	cfg.NAND.Channels, cfg.NAND.WaysPerChannel = 4, 2
	cfg.WriteBufferPages = 32
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := c.PageSize()
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 0, Pages: 8, Data: make([]byte, 8*ps)})
	if !w.Ok() || c.BufferedPages() != 8 {
		t.Fatalf("write: %+v, %d pages buffered", w, c.BufferedPages())
	}
	fl := c.Execute(w.Done, &nvme.Command{Op: nvme.OpFlush})
	if !fl.Ok() || c.BufferedPages() != 0 {
		t.Fatalf("flush: %+v, %d pages left", fl, c.BufferedPages())
	}
	if got := fl.Done - w.Done; got < nand.ProgramTime || got > 2*nand.ProgramTime {
		t.Fatalf("flush of 8 pages on 8 dies took %v, want about one tPROG (%v)", got, nand.ProgramTime)
	}
	if got := c.Stats().PagesDestaged; got != 8 {
		t.Fatalf("PagesDestaged = %d, want 8", got)
	}
}

// The buffer destages oldest first, also after a partial destage and a
// trim of a page in its middle, and every remaining page stays reachable.
func TestWriteBufferFIFOAfterDestage(t *testing.T) {
	c := bufferedCtrl(t, 8)
	ps := c.PageSize()
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, ps) }
	var now sim.Time
	write := func(i int) {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(i), Pages: 1, Data: page(i)})
		if !comp.Ok() {
			t.Fatalf("write %d: %+v", i, comp)
		}
		now = comp.Done
	}
	destaged := func(lbas ...int) {
		t.Helper()
		for _, i := range lbas {
			if !c.FTL().IsMapped(ftl.LBA(i)) {
				t.Fatalf("page %d not destaged", i)
			}
		}
	}
	buffered := func(lbas ...int) {
		t.Helper()
		for _, i := range lbas {
			if c.FTL().IsMapped(ftl.LBA(i)) {
				t.Fatalf("page %d destaged out of order", i)
			}
			if got, ok := c.bufLookup(uint64(i)); !ok || !bytes.Equal(got, page(i)) {
				t.Fatalf("buffered page %d lost", i)
			}
		}
	}
	for i := 0; i <= 8; i++ { // the ninth crosses the high-water mark
		write(i)
	}
	destaged(0, 1, 2, 3, 4)
	buffered(5, 6, 7, 8)
	for i := 9; i <= 11; i++ {
		write(i)
	}
	if err := c.Trim(5); err != nil { // the oldest page left
		t.Fatal(err)
	}
	for i := 12; i <= 14; i++ { // 14 crosses the mark again
		write(i)
	}
	destaged(6, 7, 8, 9, 10)
	buffered(11, 12, 13, 14)
	if _, ok := c.bufLookup(5); ok || c.FTL().IsMapped(5) {
		t.Fatal("trimmed page still buffered or destaged")
	}
	if got := c.BufferedPages(); got != 4 {
		t.Fatalf("BufferedPages = %d, want 4", got)
	}
}

func TestWriteBufferOverwriteCoalesces(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	a := bytes.Repeat([]byte{1}, ps)
	b := bytes.Repeat([]byte{2}, ps)
	var now sim.Time
	for _, d := range [][]byte{a, b, a, b} {
		comp := c.Execute(now, &nvme.Command{Op: nvme.OpWrite, LBA: 7, Pages: 1, Data: d})
		now = comp.Done
	}
	if c.BufferedPages() != 1 {
		t.Fatalf("rewrites did not coalesce: %d pages", c.BufferedPages())
	}
	fl := c.Execute(now, &nvme.Command{Op: nvme.OpFlush})
	if !fl.Ok() {
		t.Fatal("flush failed")
	}
	// Only the final version programs.
	if got := c.Array().Stats().Programs; got != 1 {
		t.Fatalf("programs = %d, want 1 (coalesced)", got)
	}
	buf := make([]byte, ps)
	r := c.Execute(fl.Done, &nvme.Command{Op: nvme.OpRead, LBA: 7, Pages: 1, Data: buf})
	if !r.Ok() || !bytes.Equal(buf, b) {
		t.Fatal("coalesced content wrong")
	}
}

// TestWriteBufferTrimDropsPage also checks Written: a page staged in the
// buffer holds data although the FTL does not map it yet, and is a hole
// again once trimmed.
func TestWriteBufferTrimDropsPage(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	data := make([]byte, ps)
	if c.Written(3) {
		t.Fatal("never-written LBA reported written")
	}
	w := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 3, Pages: 1, Data: data})
	if !c.Written(3) || c.FTL().IsMapped(3) {
		t.Fatalf("buffered page: Written %v, mapped %v; want true, false", c.Written(3), c.FTL().IsMapped(3))
	}
	if err := c.Trim(3); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if c.BufferedPages() != 0 {
		t.Fatal("trim left the page buffered")
	}
	if c.Written(3) {
		t.Fatal("trimmed page reported written")
	}
	r := c.Execute(w.Done, &nvme.Command{Op: nvme.OpRead, LBA: 3, Pages: 1, Data: make([]byte, ps)})
	if r.Status != nvme.StatusUnmapped {
		t.Fatalf("read after trim: %v", r.Status)
	}
}

func TestWriteBufferRejectsBadLBA(t *testing.T) {
	c := bufferedCtrl(t, 32)
	ps := c.PageSize()
	comp := c.Execute(0, &nvme.Command{Op: nvme.OpWrite, LBA: 1 << 40, Pages: 1, Data: make([]byte, ps)})
	if comp.Status != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v", comp.Status)
	}
	cfg := testConfig()
	cfg.WriteBufferPages = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative write buffer accepted")
	}
}
