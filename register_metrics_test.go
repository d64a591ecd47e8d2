package pipette_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pipette"
	"pipette/internal/bench"
	"pipette/internal/telemetry"
)

// TestRegisterMetrics drives a faulted System with file and KV traffic and
// checks the registry exposes non-zero series in all four metric families.
func TestRegisterMetrics(t *testing.T) {
	sys, err := pipette.New(pipette.Options{
		CapacityBytes: 64 << 20,
		FaultProfile:  "nand.read:rber*50,hmb.ring:0.05",
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(telemetry.L("job", "test"))
	sys.RegisterMetrics(reg)

	if err := sys.CreateFile("data", 4<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", pipette.ReadOnly|pipette.FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i := int64(0); i < 400; i++ {
		_, err := f.ReadAt(buf, (i*7919)%(4<<20-128))
		if err != nil && !errors.Is(err, pipette.ErrUncorrectable) {
			t.Fatal(err)
		}
	}
	store, err := sys.OpenKV(pipette.KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := store.Put(key, []byte(strings.Repeat("v", 64))); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	exposition := out.String()
	for _, family := range []string{"ssd_reads_total", "cache_accesses_total", "kv_ops_total", "fault_injected_total"} {
		nonZero := false
		for _, line := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(line, family) && !strings.HasSuffix(line, " 0") {
				nonZero = true
				break
			}
		}
		if !nonZero {
			t.Errorf("family %s has no non-zero series:\n%s", family, exposition)
		}
	}
	if !strings.Contains(exposition, `job="test"`) {
		t.Errorf("constant label missing from exposition:\n%s", exposition)
	}
}

// TestMetricSchemaShared pins the promise that one dashboard serves both
// the facade and pipette-bench's harness: every shared counter family —
// all but the facade's own pipette_* and the harness's own bench_* — has
// the same # HELP and # TYPE lines and the same series label sets on a
// faulted System as on a bench.Live.
func TestMetricSchemaShared(t *testing.T) {
	sys, err := pipette.New(pipette.Options{CapacityBytes: 64 << 20, FaultProfile: "nand.read:rber*50"})
	if err != nil {
		t.Fatal(err)
	}
	facade := telemetry.NewRegistry()
	sys.RegisterMetrics(facade)
	harness := telemetry.NewRegistry()
	bench.NewLive(harness)

	got, want := counterSchema(t, facade), counterSchema(t, harness)
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("facade lacks family %s", name)
		} else if g != w {
			t.Errorf("family %s differs:\n--- facade\n%s--- harness\n%s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("harness lacks family %s", name)
		}
	}
	if len(want) == 0 {
		t.Fatal("no shared counter families found")
	}
}

// counterSchema scrapes reg and returns each shared counter family's
// HELP/TYPE lines and series identities, sample values stripped.
func counterSchema(t *testing.T, reg *telemetry.Registry) map[string]string {
	t.Helper()
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	families := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var name string
		if strings.HasPrefix(line, "# ") {
			name = strings.Fields(line)[2]
		} else {
			name = line[:strings.IndexAny(line, "{ ")]
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if strings.HasPrefix(name, "pipette_") || strings.HasPrefix(name, "bench_") {
			continue
		}
		families[name] += line + "\n"
	}
	for name, schema := range families {
		if !strings.Contains(schema, "# TYPE "+name+" counter\n") {
			delete(families, name)
		}
	}
	return families
}
