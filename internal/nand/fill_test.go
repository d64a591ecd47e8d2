package nand

import (
	"bytes"
	"testing"

	"pipette/internal/sim"
)

// fillGo is fill with the Go loop alone, so AVX2 hosts test and time
// the other hosts' path too.
func fillGo(ps patternSource, p PPA, off int, buf []byte) { ps.fillUsing(p, off, buf, false) }

// fillPaths are the two ways content is built: fill as it dispatches on
// this CPU, and the Go loop, which is tested on every host.
var fillPaths = []struct {
	name string
	fill func(patternSource, PPA, int, []byte)
}{
	{"fill", patternSource.fill},
	{"fillGo", fillGo},
}

func logFillPath(t *testing.T) {
	if vectorFill {
		t.Log("fill runs the AVX2 kernel")
	} else {
		t.Log("fill runs the Go loop: no AVX2 kernel on this host")
	}
}

// referenceBytes is bytes [0, n) of page p by the per-word rule.
func referenceBytes(ps patternSource, p PPA, n int) []byte {
	ref := make([]byte, n)
	for a := range ref {
		ref[a] = byte(ps.word(p, a>>3) >> (8 * uint(a&7)))
	}
	return ref
}

func TestFillEveryLengthAndOffset(t *testing.T) {
	// Every length 0..4096 at every word offset 0..7 runs the 256-byte
	// loop, the 64-byte loop and every remainder under 64 bytes. The
	// destination sits inside guard bands, shifted by off so its memory
	// alignment varies too; a write outside [off, off+n) changes a guard.
	logFillPath(t)
	const guard, sentinel = 64, 0xa5
	ps := patternSource{seed: ContentSeed}
	p := PPA(0x1234_5678)
	ref := referenceBytes(ps, p, 4096+8)
	clean := bytes.Repeat([]byte{sentinel}, guard+8+4096+guard)
	band := make([]byte, len(clean))
	for _, path := range fillPaths {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 4096; n++ {
				copy(band, clean)
				lo, hi := guard+off, guard+off+n
				path.fill(ps, p, off, band[lo:hi:hi])
				if !bytes.Equal(band[lo:hi], ref[off:off+n]) {
					t.Fatalf("%s: [%d,+%d) differs from the per-word rule", path.name, off, n)
				}
				if !bytes.Equal(band[:lo], clean[:lo]) || !bytes.Equal(band[hi:], clean[hi:]) {
					t.Fatalf("%s: [%d,+%d) wrote outside its destination", path.name, off, n)
				}
			}
		}
	}
}

func TestGeometryProperty(t *testing.T) {
	// DieOf and ChannelOf divide once; Decompose divides coordinate by
	// coordinate. They must agree on every geometry, including ones with a
	// non-power-of-two block count, an odd way count and one plane.
	geometries := []struct{ ch, ways, planes, blocks, pages int }{
		{2, 2, 1, 8, 16},
		{3, 3, 1, 7, 16},
		{2, 5, 2, 13, 8},
		{1, 7, 2, 3, 5},
		{8, 8, 2, 64, 256},
	}
	rng := sim.NewRNG(3)
	for _, g := range geometries {
		cfg := DefaultConfig()
		cfg.Channels, cfg.WaysPerChannel, cfg.PlanesPerDie = g.ch, g.ways, g.planes
		cfg.BlocksPerPlane, cfg.PagesPerBlock = g.blocks, g.pages
		a := mustArray(t, cfg)
		total := cfg.TotalPages()
		for i := 0; i < 2000; i++ {
			p := PPA(rng.Uint64n(total))
			if i == 0 {
				p = PPA(total - 1)
			}
			ch, way, plane, block, page := cfg.Decompose(p)
			if got, want := cfg.DieOf(p), ch*cfg.WaysPerChannel+way; got != want || a.dieOf(p) != want {
				t.Fatalf("%+v: DieOf(%d) = %d (array %d), Decompose gives %d", g, p, got, a.dieOf(p), want)
			}
			if got := cfg.ChannelOf(p); got != ch {
				t.Fatalf("%+v: ChannelOf(%d) = %d, Decompose gives %d", g, p, got, ch)
			}
			if back := cfg.PPAOf(ch, way, plane, block, page); back != p {
				t.Fatalf("%+v: PPAOf(Decompose(%d)) = %d", g, p, back)
			}
		}
		if err := a.checkPPA(PPA(total - 1)); err != nil {
			t.Fatalf("%+v: last page rejected: %v", g, err)
		}
		if err := a.checkPPA(PPA(total)); err == nil {
			t.Fatalf("%+v: ppa %d past the end accepted", g, total)
		}
	}
}

func BenchmarkPatternFillPageGo(b *testing.B) {
	ps := patternSource{seed: 1}
	buf := alignedBuf(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillGo(ps, PPA(i), 0, buf)
	}
}
