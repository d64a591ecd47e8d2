// Package core implements Pipette, the paper's fine-grained read framework
// (§3): the Fine-Grained Access Detector, the Read Dispatcher, the
// Fine-Grained Access Constructor and Requester on the miss path, and the
// Fine-Grained Read Cache with its adaptive caching mechanism (§3.2.2),
// adaptive slab reassignment (§3.2.3), and dynamic allocation strategy
// arbitrating memory between the page cache and the fine cache (§3.2.4).
// The first two act only under arena pressure, a deliberate deviation
// from the paper (DESIGN.md §4, decision 13): the threshold rises only
// after a window that evicted or migrated, and an idle class gives up a
// slab only when the free pool is empty.
//
// The framework plugs into the VFS as a vfs.FineRouter: fine-grained reads
// that miss the page cache land in TryFineRead; writes invalidate
// overlapping cache items through OnWrite (§3.1.3).
package core

import (
	"errors"
	"fmt"
	"math"

	"pipette/internal/hmb"
	"pipette/internal/sim"
	"pipette/internal/slab"
)

// Fixed policy parameters and host costs, from the paper's prototype where
// it gives numbers and sensible engineering defaults elsewhere.
const (
	// AdaptWindow is how many fine accesses one threshold-adaptation window
	// spans (§3.2.2). A window whose reuse ratio falls below MinReuseRatio
	// raises the threshold if it also evicted or migrated; one above
	// MaxReuseRatio lowers it.
	AdaptWindow   = 512
	MinReuseRatio = 0.1
	MaxReuseRatio = 0.5

	// ReassignStages is how many maintenance stages a class's eviction
	// count must stay still before the class donates a slab back to an
	// empty free pool (§3.2.3).
	ReassignStages = 3

	// HitService is the host-side cost of serving a fine-cache hit
	// (lookup + copy). MissHostOverhead is the Constructor/Requester
	// software cost on top of the device command.
	HitService       = 500 * sim.Nanosecond
	MissHostOverhead = 500 * sim.Nanosecond

	// seed drives the random donor-class pick of §3.2.1 solution 2.
	seed = 0x9153
)

// Config tunes the framework. DefaultConfig matches the paper's prototype
// where it gives numbers and sensible engineering defaults elsewhere.
type Config struct {
	// FineMaxBytes is the Dispatcher's routing threshold: reads of at most
	// this many bytes take the byte-granular path; larger reads fall back
	// to the block path. Half a page by default.
	FineMaxBytes int

	// HMB sizes the shared host memory region (Info/Data/TempBuf areas).
	HMB hmb.Config
	// SlabSize and ItemSizes configure the Data Area allocator.
	SlabSize  int
	ItemSizes []int

	// Adaptive caching (§3.2.2): an item is admitted to the cache once its
	// reference count reaches the threshold; the threshold moves within
	// [MinThreshold, MaxThreshold] driven by the reuse ratio observed over
	// AdaptWindow fine accesses.
	InitialThreshold uint32
	MinThreshold     uint32
	MaxThreshold     uint32

	// Adaptive reassignment (§3.2.3): every MaintenanceEvery fine accesses
	// the maintenance logic runs one stage.
	MaintenanceEvery uint64

	// Dynamic allocation (§3.2.4): when the fine cache wins the hit-ratio
	// comparison it may grow by migrating slabs, shrinking the page cache,
	// but never below PageCacheFloorPages; a floor above the page cache's
	// starting budget counts as that budget. OverflowMaxBytes bounds the
	// out-of-cache region migrated data lives in.
	PageCacheFloorPages int
	OverflowMaxBytes    int
}

// DefaultConfig returns the defaults described above.
func DefaultConfig() Config {
	return Config{
		FineMaxBytes:        2048,
		HMB:                 hmb.DefaultConfig(),
		SlabSize:            64 << 10,
		ItemSizes:           slab.DefaultItemSizes(),
		InitialThreshold:    1,
		MinThreshold:        1,
		MaxThreshold:        8,
		MaintenanceEvery:    8192,
		PageCacheFloorPages: 256,
		OverflowMaxBytes:    64 << 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.FineMaxBytes <= 0:
		return errors.New("core: FineMaxBytes must be positive")
	case c.MinThreshold < 1:
		return errors.New("core: MinThreshold must be >= 1")
	case c.InitialThreshold < c.MinThreshold || c.InitialThreshold > c.MaxThreshold:
		return fmt.Errorf("core: InitialThreshold %d outside [%d,%d]",
			c.InitialThreshold, c.MinThreshold, c.MaxThreshold)
	case c.MaintenanceEvery == 0:
		return errors.New("core: MaintenanceEvery must be positive")
	case c.PageCacheFloorPages < 0:
		return errors.New("core: negative page cache floor")
	case c.OverflowMaxBytes < 0:
		return errors.New("core: negative overflow bound")
	case c.HMB.DataBytes > math.MaxInt32:
		// The file tables keep arena offsets as int32.
		return fmt.Errorf("core: Data Area of %d bytes exceeds 2 GiB", c.HMB.DataBytes)
	}
	if err := c.HMB.Validate(); err != nil {
		return err
	}
	sc := slab.Config{ArenaSize: c.HMB.DataBytes, SlabSize: c.SlabSize, ItemSizes: c.ItemSizes}
	return sc.Validate()
}

// Stats counts framework activity beyond the cache hit counters.
type Stats struct {
	FineReads     uint64 // reads taken by the fine path
	Declined      uint64 // reads routed back to the block path (too large)
	Holes         uint64 // fine reads of unwritten pages, routed to the block path
	Admissions    uint64 // items admitted to the Data Area
	TempBypasses  uint64 // misses served via TempBuf (below threshold)
	Evictions     uint64 // solution-1 evictions
	Migrations    uint64 // solution-2 slab migrations
	Reassignments uint64 // §3.2.3 maintenance slab reassignments
	Invalidations uint64 // items deleted by the write hook
	OverflowDrops uint64 // overflow items dropped at the bound
	Repromotions  uint64 // overflow items moved back into the arena
	ThresholdUps  uint64
	ThresholdDown uint64
}
