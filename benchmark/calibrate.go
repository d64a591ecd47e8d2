package main

import "time"

// The benchmark runs on shared machines, where other tenants' load can slow
// the simulator by a third for a minute at a time with no steal time
// showing in the guest. Host times are therefore reported on a reference
// clock: each measurement is multiplied by calRefNs over the time a fixed
// calibration kernel takes right next to it. The kernel's code never
// changes, so a change to the simulator moves a scaled time exactly as it
// moves wall time, while contention that slows kernel and simulator alike
// cancels out. The raw wall times are printed beside the scaled ones.

// calRefNs is the kernel's time on the reference host (2 vCPUs of an Intel
// Xeon, Sapphire Rapids class, under KVM), so scaled times read as that
// host's nanoseconds.
const calRefNs = 1.2e6

// calibration kernel state: a 64 Ki-entry map and one page buffer. The map
// is built at start-up so no timed phase pays for it.
var (
	calTable = func() map[uint64]uint64 {
		t := make(map[uint64]uint64, calKeys)
		for i := uint64(0); i < calKeys; i++ {
			t[i*0x9e3779b97f4a7c15] = i
		}
		return t
	}()
	calPage [4096]byte
	calSink uint64
)

const calKeys = 1 << 16

// calKernel does, at a fixed size, the two things the simulator's hot paths
// do most: fill a 4 KiB page from a pseudo-random stream (the NAND content
// pattern) and look keys up in a map (page cache, FTL, fine cache). On the
// reference host it takes about calRefNs; it allocates nothing.
func calKernel() {
	x := uint64(7)
	for r := 0; r < 100; r++ {
		for i := range calPage {
			if i&7 == 0 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calPage[i] = byte(x >> (8 * (i & 7)))
		}
		for k := uint64(0); k < 100; k++ {
			calSink += calTable[(x+k)%calKeys*0x9e3779b97f4a7c15]
		}
	}
}

// hostScale times the calibration kernel and returns the factor that turns
// a wall time measured now into reference-host time.
func hostScale() float64 {
	t := time.Now()
	calKernel()
	return calRefNs / float64(time.Since(t).Nanoseconds())
}
