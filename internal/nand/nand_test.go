package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"pipette/internal/resource"
	"pipette/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 16
	return cfg
}

func mustArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// readPage reads page p into a fresh buffer.
func readPage(a *Array, now sim.Time, p PPA) ([]byte, sim.Time, error) {
	buf := make([]byte, a.Config().PageSize)
	done, err := a.ReadPageInto(now, p, buf)
	return buf, done, err
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.WaysPerChannel = -1 },
		func(c *Config) { c.PageSize = 100 }, // not multiple of 8
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.PageSize = MaxPageSize + 8 }, // past the template
	}
	for i, mut := range cases {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	largest := testConfig()
	largest.PageSize = MaxPageSize
	if err := largest.Validate(); err != nil {
		t.Errorf("a %d-byte page rejected: %v", MaxPageSize, err)
	}
}

func TestGeometryArithmetic(t *testing.T) {
	c := testConfig()
	if got := c.Dies(); got != 4 {
		t.Errorf("Dies = %d, want 4", got)
	}
	if got := c.TotalBlocks(); got != 32 {
		t.Errorf("TotalBlocks = %d, want 32", got)
	}
	if got := c.TotalPages(); got != 512 {
		t.Errorf("TotalPages = %d, want 512", got)
	}
}

func TestPPARoundTrip(t *testing.T) {
	c := testConfig()
	for ch := 0; ch < c.Channels; ch++ {
		for w := 0; w < c.WaysPerChannel; w++ {
			for blk := 0; blk < c.BlocksPerPlane; blk += 3 {
				for pg := 0; pg < c.PagesPerBlock; pg += 5 {
					p := c.PPAOf(ch, w, 0, blk, pg)
					gch, gw, gpl, gblk, gpg := c.Decompose(p)
					if gch != ch || gw != w || gpl != 0 || gblk != blk || gpg != pg {
						t.Fatalf("Decompose(PPAOf(%d,%d,0,%d,%d)) = (%d,%d,%d,%d,%d)",
							ch, w, blk, pg, gch, gw, gpl, gblk, gpg)
					}
					if c.ChannelOf(p) != ch {
						t.Fatalf("ChannelOf mismatch for %v", p)
					}
				}
			}
		}
	}
}

func TestPPARoundTripProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(raw uint64) bool {
		p := PPA(raw % c.TotalPages())
		ch, w, pl, blk, pg := c.Decompose(p)
		return c.PPAOf(ch, w, pl, blk, pg) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPAOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PPAOf out of range did not panic")
		}
	}()
	c := testConfig()
	c.PPAOf(c.Channels, 0, 0, 0, 0)
}

func TestBlockOfAndFirstPPA(t *testing.T) {
	c := testConfig()
	p := c.PPAOf(1, 1, 0, 3, 7)
	b := c.BlockOf(p)
	first := c.FirstPPA(b)
	_, _, _, _, pg := c.Decompose(first)
	if pg != 0 {
		t.Fatalf("FirstPPA page = %d, want 0", pg)
	}
	if c.BlockOf(first) != b {
		t.Fatal("FirstPPA escaped its block")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := mustArray(t, testConfig())
	p := a.Config().PPAOf(0, 0, 0, 0, 0)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	got, _, err := readPage(a, 0, p)
	if err != nil {
		t.Fatalf("ReadPageInto: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data != programmed data")
	}
	// The read copies: changing the buffer leaves the stored page alone.
	got[0] ^= 0xff
	again, _, _ := readPage(a, 0, p)
	if again[0] != data[0] {
		t.Fatal("ReadPageInto aliased the stored page")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	a := mustArray(t, testConfig())
	_, _, err := readPage(a, 0, 0)
	if !errors.Is(err, ErrNotProgram) {
		t.Fatalf("err = %v, want ErrNotProgram", err)
	}
}

func TestProgramConstraints(t *testing.T) {
	a := mustArray(t, testConfig())
	cfg := a.Config()
	data := make([]byte, cfg.PageSize)

	// Out-of-order within a block.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 1), data); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program err = %v, want ErrOutOfOrder", err)
	}
	// In order succeeds.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 0), data); err != nil {
		t.Fatalf("in-order program: %v", err)
	}
	// Reprogramming without erase fails.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 0), data); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram err = %v, want ErrNotErased", err)
	}
	// Wrong length fails.
	if _, err := a.ProgramPage(0, cfg.PPAOf(0, 0, 0, 0, 1), data[:10]); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short program err = %v, want ErrBadLength", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := mustArray(t, testConfig())
	cfg := a.Config()
	data := make([]byte, cfg.PageSize)
	p0 := cfg.PPAOf(0, 0, 0, 0, 0)
	if _, err := a.ProgramPage(0, p0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EraseBlock(0, cfg.BlockOf(p0)); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	// After erase, page 0 is reprogrammable and unwritten reads fail.
	if _, _, err := readPage(a, 0, p0); !errors.Is(err, ErrNotProgram) {
		t.Fatalf("read after erase err = %v, want ErrNotProgram", err)
	}
	if _, err := a.ProgramPage(0, p0, data); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestPreloadContentDeterministic(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(1, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	got, _, err := readPage(a, 0, p)
	if err != nil {
		t.Fatalf("ReadPageInto after Preload: %v", err)
	}
	want := make([]byte, cfg.PageSize)
	ExpectedContent(p, 0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("preloaded content != ExpectedContent oracle")
	}
	// A second array with the same seed produces identical content.
	b := mustArray(t, cfg)
	if err := b.Preload(p); err != nil {
		t.Fatal(err)
	}
	got2, _, _ := readPage(b, 0, p)
	if !bytes.Equal(got, got2) {
		t.Fatal("preloaded content not deterministic across arrays")
	}
}

func TestPeekRangeMatchesRead(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 1, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatal(err)
	}
	full, _, _ := readPage(a, 0, p)
	for _, tc := range []struct{ off, n int }{{0, 16}, {1, 7}, {100, 128}, {4000, 96}, {4095, 1}} {
		buf := make([]byte, tc.n)
		if err := a.PeekRange(p, tc.off, buf); err != nil {
			t.Fatalf("PeekRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(buf, full[tc.off:tc.off+tc.n]) {
			t.Fatalf("PeekRange(%d,%d) mismatch", tc.off, tc.n)
		}
	}
	err := a.PeekRange(p, 4090, make([]byte, 10))
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong PeekRange err = %v", err)
	}
	if want := "bytes [4090,4100) of a 4096-byte page"; !strings.Contains(err.Error(), want) {
		t.Fatalf("overlong PeekRange err = %q, want it to name %q", err, want)
	}
}

func TestPreloadRespectsOrder(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order preload err = %v", err)
	}
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, 0)); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double preload err = %v", err)
	}
}

func TestProgramOverwritesPreload(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		t.Fatal(err)
	}
	// NAND forbids program-over-program; the FTL would erase first. Verify
	// the constraint holds for preloaded pages too.
	if _, err := a.ProgramPage(0, p, make([]byte, cfg.PageSize)); !errors.Is(err, ErrNotErased) {
		t.Fatalf("program over preload err = %v", err)
	}
}

func TestReadTimingChannelParallelism(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := ReadPageTime
	tx := transferTime(cfg.PageSize)

	// Two pages on different channels proceed fully in parallel.
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(1, 0, 0, 0, 0)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, err := readPage(a, 0, p1)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := readPage(a, 0, p2)
	if err != nil {
		t.Fatal(err)
	}
	want := tR + tx
	if d1 != want || d2 != want {
		t.Fatalf("parallel channel reads done at %v/%v, want %v", d1, d2, want)
	}
}

func TestReadTimingSameDieSerializes(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := ReadPageTime
	tx := transferTime(cfg.PageSize)
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(0, 0, 0, 0, 1)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, _ := readPage(a, 0, p1)
	_, d2, _ := readPage(a, 0, p2)
	if d1 != tR+tx {
		t.Fatalf("first read done at %v, want %v", d1, tR+tx)
	}
	// Second read's sense waits for the die; its transfer then queues on
	// the bus behind nothing (bus freed long before).
	if want := 2*tR + tx; d2 != want {
		t.Fatalf("same-die second read done at %v, want %v", d2, want)
	}
}

func TestReadTimingSameChannelDifferentWays(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	tR := ReadPageTime
	tx := transferTime(cfg.PageSize)
	p1 := cfg.PPAOf(0, 0, 0, 0, 0)
	p2 := cfg.PPAOf(0, 1, 0, 0, 0)
	for _, p := range []PPA{p1, p2} {
		if err := a.Preload(p); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, _ := readPage(a, 0, p1)
	_, d2, _ := readPage(a, 0, p2)
	if d1 != tR+tx {
		t.Fatalf("first read done at %v", d1)
	}
	// Senses overlap (different dies); transfers share one bus.
	if want := tR + 2*tx; d2 != want {
		t.Fatalf("same-channel second read done at %v, want %v", d2, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := testConfig()
	a := mustArray(t, cfg)
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	data := make([]byte, cfg.PageSize)
	if _, err := a.ProgramPage(0, p, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readPage(a, 0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EraseBlock(0, cfg.BlockOf(p)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Reads != 1 || st.Programs != 1 || st.Erases != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesOut != uint64(cfg.PageSize) || st.BytesIn != uint64(cfg.PageSize) {
		t.Fatalf("byte stats = %+v", st)
	}
}

func TestCellTypeTimings(t *testing.T) {
	// The MLC constants DESIGN.md §5 documents.
	for _, c := range []struct {
		name      string
		got, want sim.Time
	}{
		{"tR", ReadPageTime, 50 * sim.Microsecond},
		{"tPROG", ProgramTime, 600 * sim.Microsecond},
		{"tBERS", EraseBlockTime, 5 * sim.Millisecond},
		{"page transfer", transferTime(4096), 9765 * sim.Nanosecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if RBER != 1e-7 {
		t.Errorf("RBER = %g, want 1e-7", RBER)
	}
}

func TestPatternFillConsistentAcrossOffsets(t *testing.T) {
	// fill(p, off, buf) must equal the per-word definition byte for byte at
	// any offset and length: page byte a is byte a&7 of word(p, a>>3).
	// Random pages, offsets and lengths cover every alignment of both
	// ragged edges, on the dispatching fill and on the Go loop alike.
	logFillPath(t)
	ps := patternSource{seed: ContentSeed}
	rng := sim.NewRNG(5)
	buf := make([]byte, 4096)
	for i := 0; i < 20_000; i++ {
		p := PPA(rng.Uint64n(1 << 32))
		off := int(rng.Uint64n(4096))
		n := int(rng.Uint64n(uint64(4096 - off + 1)))
		for _, path := range fillPaths {
			path.fill(ps, p, off, buf[:n])
			for j, got := range buf[:n] {
				a := off + j
				if want := byte(ps.word(p, a>>3) >> (8 * uint(a&7))); got != want {
					t.Fatalf("%s: page %d [%d,+%d): byte %d = %#x, want %#x", path.name, p, off, n, a, got, want)
				}
			}
		}
	}
}

func TestExpectedContentGolden(t *testing.T) {
	// FNV-64a digests of the preloaded content under the default seed: they
	// pin the content rule (template word XOR page key), so a faster fill
	// must leave them unchanged, and only a change of the rule itself
	// regenerates them.
	for _, c := range []struct {
		p      PPA
		off, n int
		digest uint64
	}{
		{0, 0, 4096, 0xee6e4e39e411ee3c},
		{1, 0, 4096, 0x5bd46be3417bad8c},
		{4095, 0, 4096, 0x41e8a469ce0cec74},
		{1 << 30, 0, 4096, 0xf7b73cde8ce8a230},
		{77, 13, 300, 0xb2a452c8c3f50e9a},
	} {
		buf := make([]byte, c.n)
		ExpectedContent(c.p, c.off, buf)
		h := fnv.New64a()
		h.Write(buf)
		if got := h.Sum64(); got != c.digest {
			t.Errorf("page %d [%d,+%d): digest %#016x, want %#016x", c.p, c.off, c.n, got, c.digest)
		}
	}
}

func TestPatternWordsDistinct(t *testing.T) {
	// The oracle catches a read served from the wrong offset because the
	// template's words are pairwise distinct, and one served from the
	// wrong page because two pages differ in every word at the same
	// offset: word(p, w) ^ word(q, w) is key(p) ^ key(q) at every w, so
	// distinct keys suffice. Both hold because Mix64 is a bijection; this
	// pins them, and tmpl's bytes against the rule, over a run of low PPAs
	// and a few at the top of the PPA range.
	words := make(map[uint64]int, MaxPageSize/8)
	for w := 0; w < MaxPageSize/8; w++ {
		got := binary.LittleEndian.Uint64(tmpl[8*w:])
		if want := sim.Mix64(tmplSeed + uint64(w)); got != want {
			t.Fatalf("tmpl word %d = %#x, want %#x", w, got, want)
		}
		if prev, dup := words[got]; dup {
			t.Fatalf("tmpl words %d and %d are equal", prev, w)
		}
		words[got] = w
	}
	ps := patternSource{seed: ContentSeed}
	pages := make([]PPA, 0, 1<<16+64)
	for p := PPA(0); p < 1<<16; p++ {
		pages = append(pages, p)
	}
	for d := PPA(0); d < 64; d++ {
		pages = append(pages, PPA(math.MaxUint64)-d)
	}
	last := MaxPageSize/8 - 1
	for _, w := range []int{0, last} {
		seen := make(map[uint64]PPA, len(pages))
		for _, p := range pages {
			v := ps.word(p, w)
			if q, dup := seen[v]; dup {
				t.Fatalf("pages %d and %d share word %d", q, p, w)
			}
			seen[v] = p
		}
	}
	keys := make(map[uint64]PPA, len(pages))
	for _, p := range pages {
		k := ps.key(p)
		if q, dup := keys[k]; dup {
			t.Fatalf("pages %d and %d share a key, so every word", q, p)
		}
		keys[k] = p
	}
}

func TestReadPageRangeTimesLikeFullRead(t *testing.T) {
	// The range read and the timing-only read charge exactly what a full
	// ReadPageInto does — completion, counters, and die and bus busy
	// intervals — and the range read returns the page's bytes.
	cfg := testConfig()
	full, ranged, bare := mustArray(t, cfg), mustArray(t, cfg), mustArray(t, cfg)
	trackers := map[*Array]*resource.Tracker{}
	for _, a := range []*Array{full, ranged, bare} {
		trackers[a] = resource.NewTracker()
		a.SetResources(trackers[a])
	}
	var pages []PPA
	for ch := 0; ch < cfg.Channels; ch++ {
		for pg := 0; pg < 4; pg++ {
			p := cfg.PPAOf(ch, 0, 0, 0, pg)
			for _, a := range []*Array{full, ranged, bare} {
				if err := a.Preload(p); err != nil {
					t.Fatal(err)
				}
			}
			pages = append(pages, p)
		}
	}
	page := make([]byte, cfg.PageSize)
	part := make([]byte, 100)
	for i, p := range pages {
		now := sim.Time(i) * 10 * sim.Microsecond
		dFull, err := full.ReadPageInto(now, p, page)
		if err != nil {
			t.Fatal(err)
		}
		off := 37 * i
		dRanged, err := ranged.ReadPageRange(now, p, off, part)
		if err != nil {
			t.Fatal(err)
		}
		dBare, err := bare.ReadPageRange(now, p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dRanged != dFull || dBare != dFull {
			t.Fatalf("read %d done at %v (range) / %v (empty), full read at %v", i, dRanged, dBare, dFull)
		}
		if !bytes.Equal(part, page[off:off+len(part)]) {
			t.Fatalf("read %d: range bytes differ from the full page", i)
		}
	}
	for _, a := range []*Array{ranged, bare} {
		if a.Stats() != full.Stats() {
			t.Fatalf("stats %+v, full reads %+v", a.Stats(), full.Stats())
		}
		// One timeline per channel, then one per die.
		got, want := trackers[a], trackers[full]
		for i := 0; i < want.Len(); i++ {
			g, w := got.At(i), want.At(i)
			if g.Busy() != w.Busy() || g.Ops() != w.Ops() {
				t.Fatalf("%s busy %v over %d ops, full reads %v over %d", w.Name(), g.Busy(), g.Ops(), w.Busy(), w.Ops())
			}
		}
	}
	if _, err := bare.ReadPageRange(0, pages[0], 4000, part); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong range err = %v, want ErrOutOfRange", err)
	}
}

func BenchmarkReadPage(b *testing.B) {
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.PPAOf(0, 0, 0, 0, 0)
	if err := a.Preload(p); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ReadPageInto(sim.Time(i), p, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// alignedBuf returns n bytes that start on a 32-byte boundary, as the page
// buffers and slots the simulator fills do: on a stack buffer's 8-byte
// boundary the kernel's 32-byte stores split cache lines, a cost the
// simulator's fills do not pay.
func alignedBuf(n int) []byte {
	b := make([]byte, n+31)
	o := int(-uintptr(unsafe.Pointer(&b[0])) & 31)
	return b[o : o+n : o+n]
}

func BenchmarkPatternFill128(b *testing.B) {
	// Fine reads start at 128-byte-aligned page offsets; the unaligned case
	// walks every byte lane.
	for _, c := range []struct {
		name string
		off  func(i int) int
	}{
		{"unaligned", func(i int) int { return (i * 13) % 3968 }},
		{"aligned", func(i int) int { return (i * 128) % 4096 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ps := patternSource{seed: 1}
			buf := alignedBuf(128)
			b.SetBytes(128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.fill(PPA(i), c.off(i), buf)
			}
		})
	}
}

func BenchmarkPatternFillPage(b *testing.B) {
	ps := patternSource{seed: 1}
	buf := alignedBuf(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.fill(PPA(i), 0, buf)
	}
}

func BenchmarkPeekRange(b *testing.B) {
	// The oracle a clean page-cache hit takes (extfs.FS.Peek → PeekLBA →
	// PeekRange): 128 bytes of a preloaded page, no virtual time.
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for pg := 0; pg < cfg.PagesPerBlock; pg++ {
		if err := a.Preload(cfg.PPAOf(0, 0, 0, 0, pg)); err != nil {
			b.Fatal(err)
		}
	}
	buf := alignedBuf(128)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.PeekRange(PPA(i%cfg.PagesPerBlock), (i*128)%cfg.PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}
}
