package nand

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pipette/internal/sim"
)

// refArray is the content rules written the plain way, as the array kept
// them before its slot store: a map from PPA to a private copy of each
// programmed page, dropped on a discard or an erase. It answers what a
// read or peek must return, bytes or error.
type refArray struct {
	cfg    Config
	data   map[PPA][]byte
	loaded map[PPA]bool
	next   map[BlockID]int
}

func newRefArray(cfg Config) *refArray {
	return &refArray{cfg: cfg, data: map[PPA][]byte{}, loaded: map[PPA]bool{},
		next: map[BlockID]int{}}
}

// place checks a program or preload of p and returns its block.
func (r *refArray) place(p PPA) (BlockID, error) {
	if uint64(p) >= r.cfg.TotalPages() {
		return 0, ErrOutOfRange
	}
	b := r.cfg.BlockOf(p)
	page := int(p - r.cfg.FirstPPA(b))
	switch {
	case page < r.next[b]:
		return b, ErrNotErased
	case page > r.next[b]:
		return b, ErrOutOfOrder
	}
	return b, nil
}

func (r *refArray) program(p PPA, data []byte) error {
	b, err := r.place(p)
	if err != nil {
		return err
	}
	r.data[p] = bytes.Clone(data)
	r.next[b]++
	return nil
}

func (r *refArray) preload(p PPA) error {
	b, err := r.place(p)
	if err != nil {
		return err
	}
	r.loaded[p] = true
	r.next[b]++
	return nil
}

func (r *refArray) discard(p PPA) {
	delete(r.data, p)
	delete(r.loaded, p)
}

func (r *refArray) drop(b BlockID) {
	for i := 0; i < r.cfg.PagesPerBlock; i++ {
		r.discard(r.cfg.FirstPPA(b) + PPA(i))
	}
}

func (r *refArray) erase(b BlockID) {
	r.drop(b)
	r.next[b] = 0
}

// read is what both ReadPageRange and PeekRange must return.
func (r *refArray) read(p PPA, off, n int) ([]byte, error) {
	if uint64(p) >= r.cfg.TotalPages() || off < 0 || off+n > r.cfg.PageSize {
		return nil, ErrOutOfRange
	}
	b := r.cfg.BlockOf(p)
	switch {
	case r.loaded[p]:
		out := make([]byte, n)
		ExpectedContent(p, off, out)
		return out, nil
	case int(p-r.cfg.FirstPPA(b)) >= r.next[b]:
		return nil, ErrNotProgram
	case r.data[p] == nil:
		return nil, ErrDiscarded
	}
	return bytes.Clone(r.data[p][off : off+n]), nil
}

// sentinel names the package error err wraps.
func sentinel(err error) error {
	for _, s := range []error{ErrOutOfRange, ErrNotProgram, ErrDiscarded, ErrNotErased, ErrOutOfOrder} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// TestContentStoreMatchesMapModel drives the array and the map model with
// the same random program, preload, read, peek, discard and erase
// sequences on a small geometry: every read and peek must give
// the same bytes or the same error, and the store must hold exactly the
// pages the model keeps bytes for.
func TestContentStoreMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { twinContent(t, seed, 4000) })
	}
}

func twinContent(t *testing.T, seed uint64, ops int) {
	cfg := testConfig()
	cfg.PageSize = 256
	a := mustArray(t, cfg)
	ref := newRefArray(cfg)
	rng := sim.NewRNG(seed)
	blocks := uint64(cfg.TotalBlocks())
	pick := func() PPA {
		b := BlockID(rng.Uint64n(blocks))
		if rng.Uint64n(4) == 0 { // anywhere, to provoke the order errors
			return cfg.FirstPPA(b) + PPA(rng.Uint64n(uint64(cfg.PagesPerBlock)))
		}
		// The block's next page, or one it already holds.
		next := ref.next[b]
		if next == cfg.PagesPerBlock || (next > 0 && rng.Uint64n(2) == 0) {
			return cfg.FirstPPA(b) + PPA(rng.Uint64n(uint64(max(next, 1))))
		}
		return cfg.FirstPPA(b) + PPA(next)
	}
	data := make([]byte, cfg.PageSize)
	now := sim.Time(0)
	for op := 0; op < ops; op++ {
		p := pick()
		switch r := rng.Uint64n(100); {
		case r < 30:
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			_, err := a.ProgramPage(now, p, data)
			if got, want := sentinel(err), ref.program(p, data); got != want {
				t.Fatalf("op %d: program %d: err %v, want %v", op, p, err, want)
			}
		case r < 40:
			err := a.Preload(p)
			if got, want := sentinel(err), ref.preload(p); got != want {
				t.Fatalf("op %d: preload %d: err %v, want %v", op, p, err, want)
			}
		case r < 75:
			off := int(rng.Uint64n(uint64(cfg.PageSize)))
			n := int(rng.Uint64n(uint64(cfg.PageSize-off) + 1))
			if rng.Uint64n(16) == 0 {
				n = cfg.PageSize - off + 1 // past the page's end
			}
			want, wantErr := ref.read(p, off, n)
			got := make([]byte, n)
			done, err := a.ReadPageRange(now, p, off, got)
			if sentinel(err) != wantErr || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("op %d: read %d [%d,+%d): err %v, want %v (or bytes differ)", op, p, off, n, err, wantErr)
			}
			now = done
			clear(got)
			err = a.PeekRange(p, off, got)
			if sentinel(err) != wantErr || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("op %d: peek %d [%d,+%d): err %v, want %v (or bytes differ)", op, p, off, n, err, wantErr)
			}
		case r < 92:
			a.Discard(p)
			ref.discard(p)
		default:
			b := cfg.BlockOf(p)
			if _, err := a.EraseBlock(now, b); err != nil {
				t.Fatalf("op %d: erase %d: %v", op, b, err)
			}
			ref.erase(b)
		}
		if got, want := a.ContentPages(), len(ref.data); got != want {
			t.Fatalf("op %d: %d pages hold content, model keeps %d", op, got, want)
		}
	}
}

// TestDiscardedPageUnreadable: a discarded page keeps its place in the
// block's program order, reads and peeks fail with ErrDiscarded instead of
// serving stale or pattern bytes, and an erase makes it programmable.
func TestDiscardedPageUnreadable(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 1, 0, 2, 0)
	data := bytes.Repeat([]byte{0x5a}, cfg.PageSize)
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(p + 1); err != nil {
		t.Fatal(err)
	}
	a.Discard(p)
	a.Discard(p + 1)
	buf := make([]byte, 8)
	for _, q := range []PPA{p, p + 1} {
		if _, err := a.ReadPageRange(0, q, 0, buf); !errors.Is(err, ErrDiscarded) {
			t.Errorf("read of discarded page %d: err %v, want ErrDiscarded", q, err)
		}
		if err := a.PeekRange(q, 0, nil); !errors.Is(err, ErrDiscarded) {
			t.Errorf("empty peek of discarded page %d: err %v, want ErrDiscarded", q, err)
		}
	}
	if _, err := a.ProgramPage(0, p, data); !errors.Is(err, ErrNotErased) {
		t.Fatalf("program over a discarded page: err %v, want ErrNotErased", err)
	}
	if got := a.ContentPages(); got != 0 {
		t.Fatalf("%d pages hold content after discarding the only one", got)
	}
	if _, err := a.EraseBlock(0, cfg.BlockOf(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	got, _, err := readPage(a, 0, p)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after reprogram: %v", err)
	}
}

// BenchmarkProgramDiscard times a page program into a recycled store slot
// and its discard: pages are programmed in PPA order, each discarded as
// soon as it is written, and a block is erased when it fills.
func BenchmarkProgramDiscard(b *testing.B) {
	cfg := DefaultConfig()
	cfg.BlocksPerPlane = 4
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, cfg.PageSize)
	var p PPA
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = a.ProgramPage(now, p, data); err != nil {
			b.Fatal(err)
		}
		a.Discard(p)
		if p++; uint64(p)%uint64(cfg.PagesPerBlock) == 0 {
			if now, err = a.EraseBlock(now, cfg.BlockOf(p-1)); err != nil {
				b.Fatal(err)
			}
		}
		if uint64(p) == cfg.TotalPages() {
			p = 0
		}
	}
}
