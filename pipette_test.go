package pipette

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pipette/internal/core"
)

func newSystem(t testing.TB, opts Options) *System {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{CapacityBytes: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(Options{PageCacheBytes: -1}); err == nil {
		t.Error("negative page cache accepted")
	}
}

func TestDefaultsWork(t *testing.T) {
	sys := newSystem(t, Options{})
	if err := sys.CreateFile("a", 1<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("a", FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := f.ReadAt(buf, 5000); err != nil {
		t.Fatal(err)
	}
	if sys.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestFileLifecycle(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20})
	if err := sys.CreateFile("x", 1<<20, true); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("y", 1<<20, false); err != nil {
		t.Fatal(err)
	}
	files := sys.Files()
	if len(files) != 2 || files[0] != "x" || files[1] != "y" {
		t.Fatalf("Files = %v", files)
	}
	if err := sys.RemoveFile("y"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Open("y", ReadOnly); err == nil {
		t.Fatal("opened removed file")
	}
	f, err := sys.Open("x", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1<<20 || f.Name() != "x" {
		t.Fatalf("file metadata wrong: %q %d", f.Name(), f.Size())
	}
}

func TestReadWriteSyncRoundTrip(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20})
	if err := sys.CreateFile("data", 4<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("public api round trip")
	if _, err := f.WriteAt(payload, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.IO.BytesWritten == 0 {
		t.Fatal("sync wrote nothing")
	}
}

func TestFineCacheVisibleInReport(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20, FineCacheBytes: 4 << 20})
	if err := sys.CreateFile("data", 8<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 50; i++ {
			if _, err := f.ReadAt(buf, i*8192); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := sys.Report()
	if rep.FineCache.Hits == 0 {
		t.Fatalf("no fine cache hits: %+v", rep.FineCache)
	}
	if rep.FineCacheMemoryBytes == 0 {
		t.Fatal("fine cache memory not reported")
	}
	if rep.IO.BytesRequested == 0 || rep.IO.BytesTransferred == 0 {
		t.Fatalf("io accounting empty: %+v", rep.IO)
	}
	// Traffic far below requested (cache absorbed repeats) — the paper's
	// headline property surfaced through the public API.
	if rep.IO.BytesTransferred >= rep.IO.BytesRequested {
		t.Fatalf("no traffic reduction: %+v", rep.IO)
	}
	if s := rep.String(); len(s) < 100 {
		t.Fatalf("report string too short: %q", s)
	}
}

// TestReportPrintsFinePathCounts: the report's fine-path line prints the
// framework's counters, §3.2.3 reassignments and the repromotions out of
// overflow included, as Report().Core holds them.
func TestReportPrintsFinePathCounts(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SlabSize = 8 << 10 // a 64 KiB arena of 8 slabs
	cfg.ItemSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	cfg.InitialThreshold = 1       // admit on first reference
	cfg.MaintenanceEvery = 1 << 60 // tick by hand
	sys := newSystem(t, Options{CapacityBytes: 64 << 20, FineCacheBytes: 64 << 10, Core: &cfg})
	if err := sys.CreateFile("data", 4<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	touchAll := func() {
		for i := int64(0); i < 64; i++ { // every slab of the 1024 B class
			if _, err := f.ReadAt(buf, i*2048); err != nil {
				t.Fatal(err)
			}
		}
	}
	touchAll()
	for i := 0; i < core.ReassignStages; i++ {
		sys.MaintenanceTick() // the idle class gives a slab's items to overflow
	}
	touchAll() // overflow hits move back into the freed slab
	rep := sys.Report()
	want := rep.Core
	if want.Reassignments == 0 || want.Repromotions == 0 {
		t.Fatalf("setup: %d reassignments, %d repromotions, want both", want.Reassignments, want.Repromotions)
	}
	var line string
	for _, l := range strings.Split(rep.String(), "\n") {
		if strings.HasPrefix(l, "fine path") {
			line = l
		}
	}
	var got core.Stats
	if _, err := fmt.Sscanf(line, "fine path %d reads, %d admissions, %d bypasses, %d evictions, %d migrations, %d reassignments, %d repromotions, %d invalidations",
		&got.FineReads, &got.Admissions, &got.TempBypasses, &got.Evictions,
		&got.Migrations, &got.Reassignments, &got.Repromotions, &got.Invalidations); err != nil {
		t.Fatalf("fine path line %q: %v", line, err)
	}
	want = core.Stats{
		FineReads: want.FineReads, Admissions: want.Admissions, TempBypasses: want.TempBypasses,
		Evictions: want.Evictions, Migrations: want.Migrations, Reassignments: want.Reassignments,
		Repromotions: want.Repromotions, Invalidations: want.Invalidations,
	}
	if got != want {
		t.Fatalf("fine path line %q prints %+v, Report().Core holds %+v", line, got, want)
	}
}

func TestDisableFineCache(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20, DisableFineCache: true})
	if err := sys.CreateFile("data", 4<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i := 0; i < 10; i++ {
		if _, err := f.ReadAt(buf, 4096); err != nil {
			t.Fatal(err)
		}
	}
	rep := sys.Report()
	if rep.Core.TempBypasses != 10 || rep.Core.Admissions != 0 {
		t.Fatalf("no-cache mode stats: %+v", rep.Core)
	}
}

func TestConcurrentAccess(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 256 << 20})
	if err := sys.CreateFile("data", 16<<20, true); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("data", ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	stop := sys.StartMaintenance(time.Millisecond)
	defer stop()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				off := int64((g*1000+i)%4000) * 4096
				if _, err := f.ReadAt(buf, off); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rep := sys.Report()
	if rep.Core.FineReads == 0 {
		t.Fatal("no fine reads recorded")
	}
}

func TestMaintenanceStopIdempotent(t *testing.T) {
	sys := newSystem(t, Options{CapacityBytes: 64 << 20})
	stop := sys.StartMaintenance(time.Millisecond)
	stop()
	stop() // second call must not panic
	sys.MaintenanceTick()
}
