package blockdev

import (
	"bytes"
	"testing"

	"pipette/internal/ftl"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
)

func testStack(t testing.TB) (*ssd.Controller, *Layer) {
	t.Helper()
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
	drv := nvme.NewDriver(ctrl, 64, nvme.DefaultCosts())
	layer, err := New(drv, ctrl.PageSize(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, layer
}

// readPages reads lbas through ReadPagesEach, copying out each page.
func readPages(l *Layer, now sim.Time, lbas []uint64) (map[uint64][]byte, sim.Time, uint64, error) {
	pages := map[uint64][]byte{}
	done, moved, err := l.ReadPagesEach(now, lbas, func(lba uint64, data []byte) {
		pages[lba] = bytes.Clone(data)
	})
	return pages, done, moved, err
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, DefaultConfig()); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(nil, 4096, Config{MaxPagesPerCommand: 0}); err == nil {
		t.Error("zero MaxPagesPerCommand accepted")
	}
}

func TestCoalesce(t *testing.T) {
	_, l := testStack(t)
	cases := []struct {
		in   []uint64
		want []run
	}{
		{nil, nil},
		{[]uint64{5}, []run{{5, 1}}},
		{[]uint64{5, 6, 7}, []run{{5, 3}}},
		{[]uint64{7, 5, 6}, []run{{5, 3}}}, // sorted before merging
		{[]uint64{1, 3, 5}, []run{{1, 1}, {3, 1}, {5, 1}}},
		{[]uint64{1, 2, 4, 5}, []run{{1, 2}, {4, 2}}},
		{[]uint64{2, 2, 3}, []run{{2, 2}}}, // duplicates collapse
	}
	for i, c := range cases {
		got := l.coalesce(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d run %d: got %v, want %v", i, j, got[j], c.want[j])
			}
		}
	}
}

func TestCoalesceRespectsMaxPages(t *testing.T) {
	_, l := testStack(t)
	l.cfg.MaxPagesPerCommand = 2
	got := l.coalesce([]uint64{1, 2, 3, 4, 5})
	if len(got) != 3 || got[0].count != 2 || got[1].count != 2 || got[2].count != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestReadPagesMergedCommand(t *testing.T) {
	ctrl, l := testStack(t)
	for i := 0; i < 8; i++ {
		if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages, done, moved, err := readPages(l, 0, []uint64{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 4 {
		t.Fatalf("got %d pages", len(pages))
	}
	if moved != uint64(4*ctrl.PageSize()) {
		t.Fatalf("moved %d bytes", moved)
	}
	if done <= 0 {
		t.Fatal("no time consumed")
	}
	st := l.Stats()
	if st.ReadCommands != 1 {
		t.Fatalf("adjacent pages issued %d commands, want 1 (merge broken)", st.ReadCommands)
	}
	if st.PagesRead != 4 || st.ReadRequests != 4 {
		t.Fatalf("stats %+v", st)
	}
	// Verify content against a direct device read.
	buf := make([]byte, ctrl.PageSize())
	comp := ctrl.Execute(0, &nvme.Command{Op: nvme.OpRead, LBA: 3, Pages: 1, Data: buf})
	if !comp.Ok() || !bytes.Equal(pages[3], buf) {
		t.Fatal("merged read content mismatch")
	}
}

func TestReadPagesKeepDeliversOnlyKept(t *testing.T) {
	// Twin stacks read the same runs; the one keeping a single page gets
	// nil data for the others, and nothing else may differ.
	lbas := []uint64{2, 3, 4, 5, 9}
	read := func(keep []uint64) (map[uint64][]byte, sim.Time, uint64, Stats, *ssd.Controller) {
		ctrl, l := testStack(t)
		for i := 0; i < 12; i++ {
			if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := make(map[uint64][]byte)
		deliver := func(lba uint64, data []byte) { got[lba] = append([]byte(nil), data...) }
		var done sim.Time
		var moved uint64
		var err error
		if keep == nil {
			done, moved, err = l.ReadPagesEach(0, lbas, deliver)
		} else {
			done, moved, err = l.ReadPagesKeep(0, lbas, keep, deliver)
		}
		if err != nil {
			t.Fatal(err)
		}
		return got, done, moved, l.Stats(), ctrl
	}
	all, allDone, allMoved, allStats, ctrl := read(nil)
	one, oneDone, oneMoved, oneStats, _ := read([]uint64{4})
	if oneDone != allDone || oneMoved != allMoved || oneStats != allStats {
		t.Fatalf("keep one: done %v moved %d %+v; keep all: done %v moved %d %+v",
			oneDone, oneMoved, oneStats, allDone, allMoved, allStats)
	}
	for _, lba := range lbas {
		want := make([]byte, ctrl.PageSize())
		if err := ctrl.PeekLBA(lba, 0, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all[lba], want) {
			t.Fatalf("ReadPagesEach: lba %d content mismatch", lba)
		}
		switch {
		case lba == 4 && !bytes.Equal(one[lba], want):
			t.Fatalf("kept lba %d content mismatch", lba)
		case lba != 4 && one[lba] != nil:
			t.Fatalf("discarded lba %d delivered %d bytes", lba, len(one[lba]))
		}
	}
}

func TestReadPagesScatteredRace(t *testing.T) {
	ctrl, l := testStack(t)
	for i := 0; i < 16; i++ {
		if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two disjoint runs race on the device: the total should be much less
	// than two serialized device reads.
	_, oneDone, _, err := readPages(l, 0, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	_, twoDone, _, err := readPages(l, 0, []uint64{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if twoDone >= 2*oneDone {
		t.Fatalf("scattered read %v vs single %v: no overlap", twoDone, oneDone)
	}
	if l.Stats().ReadCommands != 3 {
		t.Fatalf("commands = %d, want 3", l.Stats().ReadCommands)
	}
}

func TestReadPagesEmpty(t *testing.T) {
	_, l := testStack(t)
	pages, done, moved, err := readPages(l, 42, nil)
	if err != nil || len(pages) != 0 || done != 42 || moved != 0 {
		t.Fatalf("empty read = %v,%v,%d,%v", pages, done, moved, err)
	}
}

func TestReadUnmappedFails(t *testing.T) {
	_, l := testStack(t)
	if _, _, _, err := readPages(l, 0, []uint64{999}); err == nil {
		t.Fatal("unmapped read succeeded")
	}
}

func TestWritePages(t *testing.T) {
	ctrl, l := testStack(t)
	data := make([]byte, 3*ctrl.PageSize())
	for i := range data {
		data[i] = byte(i)
	}
	done, moved, err := l.WritePages(0, 10, data)
	if err != nil {
		t.Fatal(err)
	}
	if moved != uint64(len(data)) || done <= 0 {
		t.Fatalf("moved=%d done=%v", moved, done)
	}
	pages, _, _, err := readPages(l, done, []uint64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(pages[uint64(10+i)], data[i*ctrl.PageSize():(i+1)*ctrl.PageSize()]) {
			t.Fatalf("page %d mismatch", i)
		}
	}
	// Unaligned write rejected.
	if _, _, err := l.WritePages(0, 0, data[:100]); err == nil {
		t.Error("unaligned write accepted")
	}
}

func TestWriteSplitsAtMax(t *testing.T) {
	ctrl, l := testStack(t)
	l.cfg.MaxPagesPerCommand = 2
	data := make([]byte, 5*ctrl.PageSize())
	if _, _, err := l.WritePages(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if l.Stats().WriteCommands != 3 {
		t.Fatalf("WriteCommands = %d, want 3", l.Stats().WriteCommands)
	}
}

func TestTrim(t *testing.T) {
	ctrl, l := testStack(t)
	data := make([]byte, ctrl.PageSize())
	if _, _, err := l.WritePages(0, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Trim(5); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readPages(l, 0, []uint64{5}); err == nil {
		t.Fatal("read after trim succeeded")
	}
}

// TestReadPagesEachAllocFree pins the block layer's steady state at zero
// allocations: sorting, merging and issuing an unsorted LBA set with a
// duplicate reuses the layer's scratch and the driver's completion slot.
func TestReadPagesEachAllocFree(t *testing.T) {
	ctrl, l := testStack(t)
	for i := 0; i < 16; i++ {
		if err := ctrl.FTL().Preload(ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	lbas := []uint64{9, 2, 3, 9} // two runs after merging: [2,+2) and [9,+1)
	var delivered int
	deliver := func(lba uint64, data []byte) { delivered++ }
	var now sim.Time
	read := func() {
		done, _, err := l.ReadPagesEach(now, lbas, deliver)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	read()
	if delivered != 3 {
		t.Fatalf("delivered %d pages, want 3 (duplicate collapsed)", delivered)
	}
	if allocs := testing.AllocsPerRun(500, read); allocs != 0 {
		t.Fatalf("ReadPagesEach allocated %.2f times per call, want 0", allocs)
	}
}
