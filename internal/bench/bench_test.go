package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pipette/internal/workload"
)

// The harness tests assert the paper's qualitative shapes at TinyScale:
// who wins, in which direction factors move, where crossovers fall.

func ops(res *Result) float64 { return res.Snapshot.ThroughputOpsPerSec() }

func TestSyntheticUniformShapes(t *testing.T) {
	t.Parallel()
	m, err := RunSynthetic(TinyScale(), workload.Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(engine, mix string) *Result { return m.Results[engine][mix] }

	// Paper Figure 6: Pipette's win grows with the small-read ratio and is
	// substantial for pure fine-grained workload E.
	prev := 0.0
	for _, mix := range []string{"A", "C", "E"} {
		ratio := ops(get("Pipette", mix)) / ops(get("Block I/O", mix))
		if ratio < prev-0.05 {
			t.Errorf("Pipette/Block ratio fell from %.2f to %.2f at mix %s", prev, ratio, mix)
		}
		prev = ratio
	}
	if e := ops(get("Pipette", "E")) / ops(get("Block I/O", "E")); e < 1.5 {
		t.Errorf("Pipette only %.2fx block I/O on mix E uniform", e)
	}
	// Pipette must not hurt the pure-large workload A (paper: "negligible
	// overhead").
	if a := ops(get("Pipette", "A")) / ops(get("Block I/O", "A")); a < 0.95 {
		t.Errorf("Pipette %.2fx block I/O on mix A; should be ~1", a)
	}
	// 2B-SSD MMIO degrades as the large-read ratio grows.
	if ops(get("2B-SSD MMIO", "A")) >= ops(get("2B-SSD MMIO", "E")) {
		t.Error("MMIO should do worse with more large reads")
	}

	// Paper Table 2 shapes: block traffic is location-driven, so constant
	// across mixes; byte engines move exactly the requested bytes; Pipette
	// moves the least for fine-read-heavy mixes.
	blkA := get("Block I/O", "A").Snapshot.IO.TrafficMB()
	blkE := get("Block I/O", "E").Snapshot.IO.TrafficMB()
	if blkA < blkE*0.9 || blkA > blkE*1.1 {
		t.Errorf("block traffic varies across mixes: A=%.1f E=%.1f", blkA, blkE)
	}
	reqE := get("2B-SSD DMA", "E").Snapshot.IO
	if reqE.BytesTransferred != reqE.BytesRequested {
		t.Errorf("2B-SSD must move exactly requested bytes: %d vs %d",
			reqE.BytesTransferred, reqE.BytesRequested)
	}
	pipE := get("Pipette", "E").Snapshot.IO.TrafficMB()
	nocE := get("Pipette w/o cache", "E").Snapshot.IO.TrafficMB()
	if pipE >= nocE {
		t.Errorf("Pipette traffic %.1f not below no-cache %.1f on mix E", pipE, nocE)
	}
	if blkE < 10*pipE {
		t.Errorf("block traffic %.1f should dwarf Pipette's %.1f on mix E", blkE, pipE)
	}
}

func TestSyntheticZipfianShapes(t *testing.T) {
	t.Parallel()
	m, err := RunSynthetic(TinyScale(), workload.Zipfian, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(engine, mix string) *Result { return m.Results[engine][mix] }
	// Paper Figure 7: Pipette >= block everywhere, growing with small-read
	// share.
	for _, mix := range []string{"A", "B", "C", "D", "E"} {
		ratio := ops(get("Pipette", mix)) / ops(get("Block I/O", mix))
		if ratio < 0.95 {
			t.Errorf("Pipette %.2fx block on zipfian mix %s", ratio, mix)
		}
	}
	if e := ops(get("Pipette", "E")) / ops(get("Block I/O", "E")); e < 1.1 {
		t.Errorf("Pipette only %.2fx block on zipfian E", e)
	}
	// Zipfian block traffic is far below uniform's (reuse+read-ahead hits),
	// mirroring Table 3 vs Table 2.
	u, err := RunSynthetic(TinyScale(), workload.Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	zt := get("Block I/O", "E").Snapshot.IO.TrafficMB()
	ut := u.Results["Block I/O"]["E"].Snapshot.IO.TrafficMB()
	if zt >= ut {
		t.Errorf("zipfian block traffic %.1f not below uniform %.1f", zt, ut)
	}
}

func TestLatencySweepShapes(t *testing.T) {
	t.Parallel()
	s := TinyScale()
	res, err := LatencySweep(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(engine string, size int) float64 {
		return res[engine][size].Snapshot.MeanLat.Micros()
	}
	// Paper Figure 8: Pipette ~2 us flat; MMIO grows with size; the others
	// are roughly flat; DMA slower than Pipette w/o cache by the mapping
	// cost; block I/O slowest of the flat curves... Pipette lowest always.
	for _, size := range s.LatencySizes {
		p := mean("Pipette", size)
		if p > 5 {
			t.Errorf("Pipette latency %.1f us at %dB; want ~2", p, size)
		}
		for _, other := range []string{"Block I/O", "2B-SSD MMIO", "2B-SSD DMA", "Pipette w/o cache"} {
			if mean(other, size) <= p {
				t.Errorf("%s %.1f us <= Pipette %.1f at %dB", other, mean(other, size), p, size)
			}
		}
	}
	first, last := s.LatencySizes[0], s.LatencySizes[len(s.LatencySizes)-1]
	if mean("2B-SSD MMIO", last) < mean("2B-SSD MMIO", first)+50 {
		t.Error("MMIO latency not growing with request size")
	}
	if grow := mean("2B-SSD DMA", last) - mean("2B-SSD DMA", first); grow > 10 {
		t.Errorf("2B-SSD DMA latency grew %.1f us across sizes; should be ~flat", grow)
	}
	if mean("2B-SSD DMA", first) <= mean("Pipette w/o cache", first) {
		t.Error("per-access DMA mapping should make 2B-SSD DMA slower than Pipette w/o cache")
	}
}

func TestAppShapes(t *testing.T) {
	t.Parallel()
	res, err := RunApps(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range res.Apps {
		blk := res.Results["Block I/O"][app]
		pip := res.Results["Pipette"][app]
		// Paper Figure 9(a): Pipette beats block I/O on both applications.
		if ops(pip) <= ops(blk) {
			t.Errorf("%s: Pipette %.0f ops/s not above block %.0f", app, ops(pip), ops(blk))
		}
		// Paper Figure 9(b): orders-of-magnitude traffic reduction.
		if pip.Snapshot.IO.TrafficMB()*5 > blk.Snapshot.IO.TrafficMB() {
			t.Errorf("%s: Pipette traffic %.1f not well below block %.1f",
				app, pip.Snapshot.IO.TrafficMB(), blk.Snapshot.IO.TrafficMB())
		}
		// Paper Figure 1: 2B-SSD reduces traffic but not throughput.
		dma := res.Results["2B-SSD DMA"][app]
		if dma.Snapshot.IO.TrafficMB() >= blk.Snapshot.IO.TrafficMB() {
			t.Errorf("%s: 2B-SSD traffic not below block", app)
		}
		if ops(dma) >= ops(blk) {
			t.Errorf("%s: 2B-SSD throughput %.0f above block %.0f (motivation inverted)",
				app, ops(dma), ops(blk))
		}
	}
	// Paper Table 4: the fine cache outhits the page cache on the
	// recommender while using far less memory.
	blk := res.Results["Block I/O"]["Recommender System"].Snapshot
	pip := res.Results["Pipette"]["Recommender System"].Snapshot
	if pip.FineCache.HitRatio() <= blk.PageCache.HitRatio() {
		t.Errorf("FGRC hit %.1f%% not above page cache %.1f%%",
			pip.FineCache.HitRatio()*100, blk.PageCache.HitRatio()*100)
	}
	if pip.MemoryMB >= blk.MemoryMB {
		t.Errorf("Pipette memory %.1f MB not below block %.1f MB", pip.MemoryMB, blk.MemoryMB)
	}
}

func TestAblationRuns(t *testing.T) {
	t.Parallel()
	tab, err := RunAblation(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(AblationVariants()) {
		t.Fatalf("ablation rows %d, variants %d", len(tab.Rows), len(AblationVariants()))
	}
	// The dispatcher ablation: forcing 128 B reads onto the block path must
	// produce materially more traffic than the default.
	var def, d64 string
	for _, row := range tab.Rows {
		switch row[0] {
		case "default":
			def = row[2]
		case "dispatch-64B":
			d64 = row[2]
		}
	}
	if def == "" || d64 == "" {
		t.Fatalf("missing ablation rows: %q %q", def, d64)
	}
	if def >= d64 && len(def) >= len(d64) {
		t.Errorf("dispatch-64B traffic %s not above default %s", d64, def)
	}
}

func TestFindExperiment(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fig6", "table2", "fig7", "table3", "fig8",
		"fig9a", "fig9b", "table4", "fig1", "ablation", "apps", "latency",
		"kv", "ycsb"} {
		if _, err := Find(name); err != nil {
			t.Errorf("Find(%q): %v", name, err)
		}
	}
	if _, err := Find("fig99"); err == nil {
		t.Error("unknown experiment resolved")
	}
}

// tinySerial is the one -j 1 tiny-scale RunAll shared by TestRunAllTiny,
// TestTinySuiteGolden and, off the golden architectures,
// TestParallelDeterminism, so the package runs the full harness twice (at
// -j 1 and -j 8), not three times.
var tinySerial struct {
	once sync.Once
	out  []byte
	err  error
}

func tinySerialRunAll() ([]byte, error) {
	tinySerial.once.Do(func() {
		var buf bytes.Buffer
		tinySerial.err = RunAll(&buf, TinyScale(), NewPool(1))
		tinySerial.out = buf.Bytes()
	})
	return tinySerial.out, tinySerial.err
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass")
	}
	t.Parallel()
	serial, err := tinySerialRunAll()
	if err != nil {
		t.Fatal(err)
	}
	out := string(serial)
	for _, want := range []string{"Figure 6", "Table 2", "Figure 7", "Table 3",
		"Figure 8", "Figure 9(a)", "Figure 9(b)", "Table 4", "Figure 1", "Ablation",
		"YCSB"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunVerifiesContent(t *testing.T) {
	t.Parallel()
	// VerifyEvery exercises the oracle comparison path; a passing run means
	// every sampled read returned device-true bytes.
	s := TinyScale()
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 7)[2]
	for i := range EngineNames {
		e, err := newEngine(i, s.stackConfig(s.FileSize()))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewSynthetic(mix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(e, gen, 500, RunOpts{VerifyEvery: 1}); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}

func TestSensitivityShapes(t *testing.T) {
	t.Parallel()
	tab, err := RunCacheSensitivity(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: block reference + 4 arena sizes, monotone non-decreasing hit
	// ratio as the arena grows.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := -1.0
	for _, row := range tab.Rows[1:] {
		var hit float64
		if _, err := fmt.Sscanf(row[4], "%f", &hit); err != nil {
			t.Fatalf("hit cell %q", row[4])
		}
		if hit < prev-1.0 {
			t.Fatalf("hit ratio fell as arena grew: %v then %v", prev, hit)
		}
		prev = hit
	}
}

func TestSearchEngineExperiment(t *testing.T) {
	t.Parallel()
	tab, err := RunSearchEngine(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(EngineNames) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Pipette must beat the no-cache byte engines and move less data than
	// block I/O.
	vals := map[string][]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row
	}
	var pipOps, nocOps, blkTraffic, pipTraffic float64
	fmt.Sscanf(vals["Pipette"][1], "%f", &pipOps)
	fmt.Sscanf(vals["Pipette w/o cache"][1], "%f", &nocOps)
	fmt.Sscanf(vals["Block I/O"][3], "%f", &blkTraffic)
	fmt.Sscanf(vals["Pipette"][3], "%f", &pipTraffic)
	if pipOps <= nocOps {
		t.Errorf("Pipette %.0f ops/s not above no-cache %.0f", pipOps, nocOps)
	}
	if pipTraffic*2 > blkTraffic {
		t.Errorf("Pipette traffic %.1f not well below block %.1f", pipTraffic, blkTraffic)
	}
}
