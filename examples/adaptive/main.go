// Adaptive: demonstrates the three adaptive mechanisms of §3.2 reacting to
// a shifting workload. Phase 1 streams low-reuse scattered reads, about
// 5 MB of 128 B objects into a 4 MiB arena: once the arena is full and
// admissions start evicting, the admission threshold climbs to keep cold
// data out of the cache (it climbs only under that pressure, and stops
// once no admission evicts). Phase 2 hammers a small hot set — the
// threshold falls and the hit ratio soars. Phase 3 switches object sizes —
// with no free slab left, slab reassignment recycles the idle class's
// slabs.
package main

import (
	"fmt"
	"log"

	"pipette"
	"pipette/internal/core"
)

func main() {
	ccfg := core.DefaultConfig()
	ccfg.MaintenanceEvery = 4096
	sys, err := pipette.New(pipette.Options{
		CapacityBytes:  1 << 30,
		PageCacheBytes: 16 << 20,
		FineCacheBytes: 4 << 20,
		Core:           &ccfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	const size = 512 << 20
	if err := sys.CreateFile("shifting.dat", size, true); err != nil {
		log.Fatal(err)
	}
	f, err := sys.Open("shifting.dat", pipette.FineGrained)
	if err != nil {
		log.Fatal(err)
	}

	show := func(phase string) {
		r := sys.Report()
		fmt.Printf("%-28s threshold=%d  fgrc hit=%5.1f%%  admissions=%-6d bypasses=%-6d reassignments=%d\n",
			phase, r.Threshold, r.FineCache.HitRatio()*100,
			r.Core.Admissions, r.Core.TempBypasses, r.Core.Reassignments)
	}

	buf := make([]byte, 128)
	// Phase 1: 40k scattered reads, essentially no reuse. The first 32k
	// fill the arena; after that each admission evicts, and the adaptive
	// threshold rises: promoting one-shot data would only pollute.
	for i := 0; i < 40_000; i++ {
		off := (int64(i) * 25_013) % (size - 128)
		if _, err := f.ReadAt(buf, off); err != nil {
			log.Fatal(err)
		}
	}
	show("after cold scan:")

	// Phase 2: 20k reads over 256 hot objects. Reuse spikes; the threshold
	// falls back and the hot set gets promoted.
	for i := 0; i < 20_000; i++ {
		off := int64(i%256) * 4096
		if _, err := f.ReadAt(buf, off); err != nil {
			log.Fatal(err)
		}
	}
	show("after hot loop (128B):")

	// Phase 3: the workload's object size changes to 1 KiB. The 128 B
	// class goes idle; maintenance reassigns its slabs to the free pool,
	// from which the 1 KiB class grows.
	big := make([]byte, 1024)
	for i := 0; i < 40_000; i++ {
		off := int64(i%2048)*8192 + (64 << 20)
		if _, err := f.ReadAt(big, off); err != nil {
			log.Fatal(err)
		}
	}
	show("after size shift (1KiB):")

	fmt.Println()
	fmt.Println(sys.Report())
}
