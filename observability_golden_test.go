package pipette_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pipette"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// TestFaultedSystemOutputsGolden pins, by SHA-256, the three observability
// outputs of one faulted System run (the setup of TestRegisterMetrics):
// the /metrics exposition, the sampler CSV with its fault columns, and a
// flight-recorder dump. Any change to a series name, order, value or label,
// or to the captured event stream, fails here. Regenerate the sums only on
// a deliberate output change: the failure message prints the new ones.
func TestFaultedSystemOutputsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden output holds for amd64 and 386, not %s", runtime.GOARCH)
	}
	sys, err := pipette.New(pipette.Options{
		CapacityBytes: 64 << 20,
		FaultProfile:  "nand.read:rber*50,hmb.ring:0.05",
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(telemetry.L("job", "test"))
	sys.RegisterMetrics(reg)
	sampler, err := telemetry.NewSampler(100*sim.Microsecond, sys.Probes())
	if err != nil {
		t.Fatal(err)
	}
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightEvents)
	sys.SetTracer(fr)

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
		sampler.Tick(sys.Now())
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
		sampler.Tick(sys.Now())
	}

	var exposition, csv, dump bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if err := sampler.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := fr.Dump(&dump, "golden", sys.Now()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "fault.wb_retries") {
		t.Fatalf("sampler CSV lacks the fault columns:\n%s", csv.String()[:200])
	}
	for _, out := range []struct {
		name string
		b    []byte
		sum  string
	}{
		{"exposition", exposition.Bytes(), "7d0ba112454f3d4920d1e926118e457769e0ae30e395424b76673b22e1e1f705"},
		{"sampler CSV", csv.Bytes(), "2af73d99fb8ed2dda00d8193b2c53cfbcc942776ec92de6fb47e746f603a15f6"},
		{"flight dump", dump.Bytes(), "8808083ca8f92346977fc566b0311605954bfb2f5f34e5c62c76df04600183ab"},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(out.b)); sum != out.sum {
			t.Errorf("%s: sha256 %s, want %s", out.name, sum, out.sum)
		}
	}
}
