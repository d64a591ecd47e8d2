package ftl

import (
	"errors"
	"testing"

	"pipette/internal/nand"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// mappedPages counts the LBAs with physical backing.
func (f *FTL) mappedPages() int {
	n := 0
	for _, p := range f.l2p {
		if p != invalidPPA {
			n++
		}
	}
	return n
}

// residentProbe is a tracer that checks, at every NAND operation, that the
// array holds content for at most one page beyond those the FTL maps: the
// page a program has just written and the FTL has yet to map. A relocation
// that kept its source's content would push a GC or wear-leveling move past
// that bound before the victim's erase dropped it.
type residentProbe struct {
	telemetry.Tracer
	t   *testing.T
	f   *FTL
	arr *nand.Array
}

func (r *residentProbe) Enabled() bool { return true }

func (r *residentProbe) Span(track, name string, start, end sim.Time) {
	if got, mapped := r.arr.ContentPages(), r.f.mappedPages(); got > mapped+1 {
		r.t.Fatalf("during %s on %s: %d pages hold content, %d mapped", name, track, got, mapped)
	}
}

// TestUnmappedPagesLoseContent: an overwrite, a trim and a GC relocation
// each discard the page that stopped backing its LBA. Only mapped pages
// keep content through an overwrite-heavy run with GC, the mapping stays
// consistent, and every mapped LBA reads back its last write.
func TestUnmappedPagesLoseContent(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	f.SetTracer(&residentProbe{Tracer: telemetry.Nop(), t: t, f: f, arr: arr})
	buf := make([]byte, f.PageSize())

	if _, err := f.Write(0, 3, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	old, _ := f.Translate(3)
	if _, err := f.Write(0, 3, page(f, 2)); err != nil {
		t.Fatal(err)
	}
	if err := arr.PeekRange(old, 0, buf); !errors.Is(err, nand.ErrDiscarded) {
		t.Fatalf("peek of the overwritten page: err %v, want ErrDiscarded", err)
	}
	old, _ = f.Translate(3)
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if err := arr.PeekRange(old, 0, buf); !errors.Is(err, nand.ErrDiscarded) {
		t.Fatalf("peek of the trimmed page: err %v, want ErrDiscarded", err)
	}

	workingSet := f.LogicalPages() * 3 / 4
	rng := sim.NewRNG(7)
	last := map[LBA]byte{}
	var now sim.Time
	for i := 0; i < int(arr.Config().TotalPages())*4; i++ {
		lba := LBA(rng.Uint64n(workingSet))
		if i%16 == 15 {
			if err := f.Trim(lba); err != nil {
				t.Fatal(err)
			}
			delete(last, lba)
			continue
		}
		done, err := f.Write(now, lba, page(f, byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = done
		last[lba] = byte(i)
	}
	if f.Stats().GCWrites == 0 {
		t.Fatal("GC relocated nothing; the relocation discard went untested")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, mapped := arr.ContentPages(), f.mappedPages(); got != mapped {
		t.Fatalf("%d pages hold content, %d mapped", got, mapped)
	}
	for lba, want := range last {
		done, err := f.ReadInto(now, lba, buf)
		if err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		now = done
		if buf[0] != want || buf[len(buf)-1] != want {
			t.Fatalf("lba %d = %d, want %d", lba, buf[0], want)
		}
	}
}

// TestFTLOverwriteAllocFree: once every block has been programmed, an
// overwrite, GC relocations and erases included, allocates nothing.
func TestFTLOverwriteAllocFree(t *testing.T) {
	arr := smallNAND(t)
	f := newFTL(t, arr)
	data := page(f, 9)
	working := f.LogicalPages() / 2
	var now sim.Time
	i := uint64(0)
	write := func() {
		done, err := f.Write(now, LBA(i*7%working), data)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		i++
	}
	for range 8 * arr.Config().TotalPages() {
		write()
	}
	gcs := f.Stats().GCRuns
	if allocs := testing.AllocsPerRun(2000, write); allocs != 0 {
		t.Errorf("overwrite allocated %v times, want 0", allocs)
	}
	if f.Stats().GCRuns == gcs {
		t.Fatal("no GC ran in the measured writes")
	}
}
