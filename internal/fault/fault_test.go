package fault

import (
	"testing"
)

func TestParseProfile(t *testing.T) {
	t.Parallel()
	p, err := ParseProfile("nand.read:rber*20, hmb.ring:0.01#100, nvme.dma:0.005@16-4095")
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("profile parsed as empty")
	}
	r, ok := p.Rule(SiteNANDRead)
	if !ok || r.RBERMult != 20 || r.Prob != 0 {
		t.Fatalf("nand.read rule = %+v, set=%v", r, ok)
	}
	r, ok = p.Rule(SiteHMBRing)
	if !ok || r.Prob != 0.01 || r.MaxCount != 100 {
		t.Fatalf("hmb.ring rule = %+v, set=%v", r, ok)
	}
	r, ok = p.Rule(SiteNVMeDMA)
	if !ok || r.Prob != 0.005 || r.LBAMin != 16 || r.LBAMax != 4095 {
		t.Fatalf("nvme.dma rule = %+v, set=%v", r, ok)
	}
	if _, ok := p.Rule(SiteNANDProgram); ok {
		t.Fatal("unset site reported a rule")
	}
}

func TestParseProfileEmpty(t *testing.T) {
	t.Parallel()
	for _, s := range []string{"", "   ", ","} {
		p, err := ParseProfile(s)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", s, err)
		}
		if !p.Empty() {
			t.Fatalf("ParseProfile(%q) not empty", s)
		}
		if p.NewInjector(1) != nil {
			t.Fatalf("empty profile built a non-nil injector")
		}
	}
}

func TestParseProfileErrors(t *testing.T) {
	t.Parallel()
	for _, s := range []string{
		"nand.read",         // no colon
		"bogus.site:0.5",    // unknown site
		"nand.read:1.5",     // probability out of range
		"nand.read:-0.1",    // negative probability
		"nand.read:rber*",   // missing multiplier
		"nand.read:rber*-3", // negative multiplier
		"hmb.ring:0.1#0",    // zero count
		"hmb.ring:0.1#x",    // bad count
		"nvme.dma:0.1@5",    // range missing hi
		"nvme.dma:0.1@9-2",  // empty range
		"nvme.dma:0.1@a-b",  // non-numeric range
	} {
		if _, err := ParseProfile(s); err == nil {
			t.Errorf("ParseProfile(%q) accepted", s)
		}
	}
}

func TestNilInjectorIsNop(t *testing.T) {
	t.Parallel()
	var inj *Injector
	if inj.Enabled() {
		t.Fatal("nil injector enabled")
	}
	if out := inj.Check(SiteNANDRead, 7); out.Hit {
		t.Fatal("nil injector hit")
	}
	if inj.Injected(SiteNANDRead) != 0 || inj.TotalInjected() != 0 {
		t.Fatal("nil injector counted injections")
	}
	inj.ResolveRBER(SiteNANDRead, 1e-6, 4096*8) // must not panic

	// The acceptance criterion: the Nop path allocates nothing.
	allocs := testing.AllocsPerRun(1000, func() {
		_ = inj.Check(SiteNANDRead, 42)
	})
	if allocs != 0 {
		t.Fatalf("nil injector Check allocates %.1f per op", allocs)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	t.Parallel()
	p, err := ParseProfile("nand.read:0.3,hmb.ring:0.2")
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewInjector(0x5eed)
	b := p.NewInjector(0x5eed)
	for i := 0; i < 10_000; i++ {
		oa := a.Check(SiteNANDRead, uint64(i))
		ob := b.Check(SiteNANDRead, uint64(i))
		if oa != ob {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, oa, ob)
		}
		if i%3 == 0 {
			if oa, ob := a.Check(SiteHMBRing, uint64(i)), b.Check(SiteHMBRing, uint64(i)); oa != ob {
				t.Fatalf("ring draw %d diverged: %+v vs %+v", i, oa, ob)
			}
		}
	}
	if a.TotalInjected() == 0 {
		t.Fatal("no injections at p=0.3 over 10k draws")
	}
	if a.TotalInjected() != b.TotalInjected() {
		t.Fatalf("counts diverged: %d vs %d", a.TotalInjected(), b.TotalInjected())
	}

	// A different seed draws a different sequence.
	c := p.NewInjector(0x5eee)
	diverged := false
	for i := 0; i < 1000; i++ {
		if p.NewInjector(0x5eed).Check(SiteNANDRead, 0) != c.Check(SiteNANDRead, 0) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestInjectorCountCap(t *testing.T) {
	t.Parallel()
	p, _ := ParseProfile("vfs.writeback:1#3")
	inj := p.NewInjector(1)
	hits := 0
	for i := 0; i < 100; i++ {
		if inj.Check(SiteVFSWriteback, uint64(i)).Hit {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("hits = %d with #3 cap, want 3", hits)
	}
	if inj.Injected(SiteVFSWriteback) != 3 {
		t.Fatalf("Injected = %d, want 3", inj.Injected(SiteVFSWriteback))
	}
}

func TestInjectorLBAWindow(t *testing.T) {
	t.Parallel()
	p, _ := ParseProfile("nand.read:1@100-199")
	inj := p.NewInjector(1)
	if inj.Check(SiteNANDRead, 99).Hit {
		t.Fatal("hit below window")
	}
	if inj.Check(SiteNANDRead, 200).Hit {
		t.Fatal("hit above window")
	}
	if !inj.Check(SiteNANDRead, 100).Hit || !inj.Check(SiteNANDRead, 199).Hit {
		t.Fatal("miss inside window at p=1")
	}
}

func TestResolveRBER(t *testing.T) {
	t.Parallel()
	p, _ := ParseProfile("nand.read:rber*10")
	inj := p.NewInjector(1)
	// Before resolution the rber-only rule has probability 0: no hits, and
	// crucially no RNG draws.
	if inj.Check(SiteNANDRead, 0).Hit {
		t.Fatal("hit before RBER resolution")
	}
	inj.ResolveRBER(SiteNANDRead, 1e-7, 4096*8) // 10 * 1e-7 * 32768 ≈ 0.033
	hits := 0
	for i := 0; i < 100_000; i++ {
		if inj.Check(SiteNANDRead, uint64(i)).Hit {
			hits++
		}
	}
	// Expect ~3277 hits; accept a generous band.
	if hits < 2000 || hits > 5000 {
		t.Fatalf("hits = %d, want ≈3300", hits)
	}

	// Resolution clamps at probability 1.
	q, _ := ParseProfile("nand.read:rber*1")
	inj2 := q.NewInjector(1)
	inj2.ResolveRBER(SiteNANDRead, 1, 4096*8)
	if !inj2.Check(SiteNANDRead, 0).Hit {
		t.Fatal("clamped probability 1 missed")
	}
}

func TestSum32(t *testing.T) {
	t.Parallel()
	a := []byte("fine-grained read payload")
	b := append([]byte(nil), a...)
	if Sum32(a) != Sum32(b) {
		t.Fatal("identical payloads hash differently")
	}
	b[7] ^= 1 // single bit flip must be detected
	if Sum32(a) == Sum32(b) {
		t.Fatal("bit flip not detected")
	}
}

// BenchmarkNopCheck guards the Nop injector's zero-cost promise on the
// read hot path: one nil test, no allocations.
func BenchmarkNopCheck(b *testing.B) {
	var inj *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if inj.Check(SiteNANDRead, uint64(i)).Hit {
			b.Fatal("nil injector hit")
		}
	}
}
