package hmb

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// mapped reports whether one entry of /proc/self/maps covers [lo, hi).
func mapped(t *testing.T, lo, hi uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var start, end uintptr
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &start, &end); err != nil {
			t.Fatalf("maps line %q: %v", sc.Text(), err)
		}
		if start <= lo && hi <= end {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}

// regionRange builds a region and returns only the address range of its
// mapping, so nothing keeps the region reachable.
func regionRange(t *testing.T) (lo, hi uintptr) {
	t.Helper()
	r, err := New(Config{DataBytes: 3 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(r.buf)))
	return lo, lo + uintptr(len(r.buf))
}

// TestDroppedRegionUnmapped: the finalizer returns a dropped region's
// mapping to the OS once a collection finds the region unreachable.
func TestDroppedRegionUnmapped(t *testing.T) {
	lo, hi := regionRange(t)
	if !mapped(t, lo, hi) {
		t.Fatalf("region [%#x,%#x) is not an OS mapping", lo, hi)
	}
	// Finalizers run on their own goroutine after the collection that
	// queues them; poll until this one has.
	deadline := time.Now().Add(10 * time.Second)
	for mapped(t, lo, hi) {
		if time.Now().After(deadline) {
			t.Fatalf("region [%#x,%#x) still mapped after collections", lo, hi)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
