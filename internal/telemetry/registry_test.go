package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry(L("engine", "pipette"))
	c := r.Counter("ssd_block_reads_total", "block-interface read commands")
	c.Add(41)
	c.Inc()
	r.GaugeFunc("cache_hit_ratio", "page cache hit ratio", func() float64 { return 0.75 }, L("cache", "page"))
	r.GaugeFunc("threshold", "adaptive admission threshold", func() float64 { return 96 })
	r.CounterFunc("kv_puts_total", "store puts", func() uint64 { return 7 })

	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE ssd_block_reads_total counter",
		`ssd_block_reads_total{engine="pipette"} 42`,
		"# TYPE cache_hit_ratio gauge",
		`cache_hit_ratio{cache="page",engine="pipette"} 0.75`,
		`threshold{engine="pipette"} 96`,
		`kv_puts_total{engine="pipette"} 7`,
		"# HELP ssd_block_reads_total block-interface read commands",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryFamiliesSorted pins deterministic output: families appear in
// name order regardless of registration order.
func TestRegistryFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	out := scrape(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	if scrape(t, r) != out {
		t.Fatal("repeated scrapes differ")
	}
}

// TestRegistryLabelEscaping covers the exposition-format escapes: quotes,
// backslashes, and newlines in label values must round-trip escaped, and
// help strings escape backslash + newline only.
func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("weird", "help with \\ and\nnewline", func() float64 { return 1 }, L("path", `C:\tmp\"x"`+"\nline2"))
	out := scrape(t, r)
	if want := `weird{path="C:\\tmp\\\"x\"\nline2"} 1`; !strings.Contains(out, want) {
		t.Errorf("label escaping wrong: missing %q in:\n%s", want, out)
	}
	if want := `# HELP weird help with \\ and\nnewline`; !strings.Contains(out, want) {
		t.Errorf("help escaping wrong: missing %q in:\n%s", want, out)
	}
	if strings.Count(out, "\n") != strings.Count(out, "\n") || strings.Contains(strings.TrimSuffix(out, "\n"), "line2\n") {
		t.Errorf("raw newline leaked into exposition:\n%q", out)
	}
}

// TestRegistryEmptyHistogram: an empty histogram still exposes every
// bucket, a zero sum, and a zero count — scrapers treat a missing _count
// as a broken series.
func TestRegistryEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_us", "latency", []float64{1, 10, 100})
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="1"} 0`,
		`lat_us_bucket{le="10"} 0`,
		`lat_us_bucket{le="100"} 0`,
		`lat_us_bucket{le="+Inf"} 0`,
		"lat_us_sum 0",
		"lat_us_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty histogram missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		`lat_us_bucket{le="1"} 2`, // 0.5 and the le-boundary 1
		`lat_us_bucket{le="10"} 3`,
		`lat_us_bucket{le="100"} 4`,
		`lat_us_bucket{le="+Inf"} 5`,
		"lat_us_sum 5056.5",
		"lat_us_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering gauge over counter family did not panic")
		}
	}()
	r.GaugeFunc("m", "", func() float64 { return 0 })
}

func TestRegistryDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", L("a", "1"))
	r.Counter("m", "", L("a", "2")) // distinct labels: fine
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.Counter("m", "", L("a", "1"))
}

// TestRegistryConcurrentScrape hammers the registry from writer and
// scraper goroutines; run under -race this is the proof that an attached
// scraper cannot perturb (or be corrupted by) the instrumented run.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 10_000; i++ {
		c.Inc()
		h.Observe(float64(i % 10))
	}
	close(stop)
	wg.Wait()
	out := scrape(t, r)
	if !strings.Contains(out, "ops_total 10000") {
		t.Errorf("final scrape lost writes:\n%s", out)
	}
	if !strings.Contains(out, "lat_count 10000") {
		t.Errorf("final scrape lost histogram samples:\n%s", out)
	}
}
