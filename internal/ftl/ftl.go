// Package ftl implements a page-level flash translation layer on top of the
// NAND array: logical-to-physical mapping, channel-striped page allocation
// (so sequential logical pages spread across channels and read-ahead enjoys
// device parallelism), out-of-place updates, greedy garbage collection, and
// TRIM.
//
// The FTL is the substrate both read paths share: the block I/O path reads
// whole pages through it, and Pipette's LBA Extractor asks it (via the
// filesystem) which physical pages hold the bytes a fine-grained read wants.
package ftl

import (
	"errors"
	"fmt"

	"pipette/internal/bitset"
	"pipette/internal/nand"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// LBA is a logical block address in units of one flash page (4 KiB by
// default), the device's exported sector-cluster granularity.
type LBA uint64

// Sentinels for the mapping tables.
const (
	invalidPPA nand.PPA = ^nand.PPA(0)
	invalidLBA LBA      = ^LBA(0)
)

// Config tunes the FTL.
type Config struct {
	// OverprovisionPct is the fraction of physical blocks reserved beyond
	// the exported logical capacity, in percent. GC needs headroom; 7 is a
	// typical consumer-drive value.
	OverprovisionPct int
	// GCFreeBlockLow triggers garbage collection when the free-block pool
	// of any die drops to this many blocks.
	GCFreeBlockLow int
}

// DefaultConfig returns production-flavoured FTL settings.
func DefaultConfig() Config {
	return Config{OverprovisionPct: 7, GCFreeBlockLow: 2}
}

// Stats counts FTL-level activity.
type Stats struct {
	GCWrites     uint64 // pages relocated by GC
	GCRuns       uint64
	BlocksErased uint64
	TrimmedPages uint64
}

// Errors returned by the FTL.
var (
	ErrUnmapped  = errors.New("ftl: lba is not mapped")
	ErrNoSpace   = errors.New("ftl: out of physical space")
	ErrBadLBA    = errors.New("ftl: lba beyond exported capacity")
	ErrBadLength = errors.New("ftl: data length does not match page size")
)

// openBlock is a die's active write frontier.
type openBlock struct {
	id   nand.BlockID
	next int // next page index to program
}

// FTL is the translation layer. Not safe for concurrent use.
type FTL struct {
	arr *nand.Array
	cfg Config
	geo nand.Config

	l2p []nand.PPA // logical page -> physical page
	p2l []LBA      // physical page -> logical page (for GC)

	validCount []int      // per block: live pages
	eraseCount []uint32   // per block: wear
	fullBlocks bitset.Set // closed (fully programmed) blocks; scans run in block-ID order

	freeBlocks [][]nand.BlockID // per die free pool
	open       []openBlock      // per die write frontier
	nextDie    int              // round-robin striping cursor

	relocBuf []byte // page scratch for GC relocation reads

	logicalPages uint64
	stats        Stats
	tr           telemetry.Tracer
	sa           *telemetry.StageAccount
	dieLabels    []telemetry.Res // per-die blame resources ("nand.ch0.w0", ...)
}

// New builds an FTL over the array.
func New(arr *nand.Array, cfg Config) (*FTL, error) {
	if cfg.OverprovisionPct < 0 || cfg.OverprovisionPct >= 50 {
		return nil, fmt.Errorf("ftl: overprovision %d%% out of [0,50)", cfg.OverprovisionPct)
	}
	if cfg.GCFreeBlockLow < 1 {
		return nil, errors.New("ftl: GCFreeBlockLow must be >= 1")
	}
	geo := arr.Config()
	f := &FTL{
		arr:        arr,
		cfg:        cfg,
		geo:        geo,
		validCount: make([]int, geo.TotalBlocks()),
		eraseCount: make([]uint32, geo.TotalBlocks()),
		fullBlocks: bitset.New(geo.TotalBlocks()),
		freeBlocks: make([][]nand.BlockID, geo.Dies()),
		open:       make([]openBlock, geo.Dies()),
		relocBuf:   make([]byte, geo.PageSize),
		tr:         telemetry.Nop(),
		dieLabels:  make([]telemetry.Res, geo.Dies()),
	}
	// Per-die blame labels, matching the nand package's die timeline names
	// so the blame table and the utilization bars agree on spelling.
	for die := range f.dieLabels {
		f.dieLabels[die] = telemetry.Intern(fmt.Sprintf("nand.ch%d.w%d",
			die/geo.WaysPerChannel, die%geo.WaysPerChannel))
	}
	total := geo.TotalPages()
	f.l2p = make([]nand.PPA, 0)
	f.p2l = make([]LBA, total)
	for i := range f.p2l {
		f.p2l[i] = invalidLBA
	}

	// Each die keeps GCFreeBlockLow blocks spare for the collector plus one
	// open frontier block.
	perDie := geo.BlocksPerDie() - cfg.GCFreeBlockLow - 1
	if perDie < 1 {
		return nil, fmt.Errorf("ftl: a die has only %d blocks", geo.BlocksPerDie())
	}
	for die := 0; die < geo.Dies(); die++ {
		for b := 0; b < geo.BlocksPerDie(); b++ {
			f.freeBlocks[die] = append(f.freeBlocks[die], nand.BlockID(die*geo.BlocksPerDie()+b))
		}
		f.open[die] = openBlock{id: f.popFree(die), next: 0}
	}

	exported := uint64(geo.Dies()) * uint64(perDie) * uint64(geo.PagesPerBlock)
	exported = exported * uint64(100-cfg.OverprovisionPct) / 100
	f.logicalPages = exported
	f.l2p = make([]nand.PPA, exported)
	for i := range f.l2p {
		f.l2p[i] = invalidPPA
	}
	return f, nil
}

// LogicalPages reports the exported logical capacity in pages.
func (f *FTL) LogicalPages() uint64 { return f.logicalPages }

// PageSize reports the mapping granularity in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// SetTracer installs a tracer on the FTL and its NAND array.
func (f *FTL) SetTracer(tr telemetry.Tracer) {
	f.tr = telemetry.OrNop(tr)
	f.arr.SetTracer(f.tr)
}

// SetStages installs the per-request stage account. The FTL attributes
// media time: page reads mark the NAND stage, programs (including GC the
// write triggered) mark the program stage. The map lookup itself costs no
// modeled time — it is covered by the controller's firmware stage.
func (f *FTL) SetStages(sa *telemetry.StageAccount) { f.sa = sa }

// Array exposes the underlying NAND array (the SSD controller needs it for
// the fine-grained read engine's direct page loads).
func (f *FTL) Array() *nand.Array { return f.arr }

// Translate resolves an LBA to its current physical page.
func (f *FTL) Translate(lba LBA) (nand.PPA, error) {
	if uint64(lba) >= f.logicalPages {
		return 0, fmt.Errorf("%w: %d >= %d", ErrBadLBA, lba, f.logicalPages)
	}
	p := f.l2p[lba]
	if p == invalidPPA {
		return 0, fmt.Errorf("%w: lba %d", ErrUnmapped, lba)
	}
	return p, nil
}

// IsMapped reports whether an LBA currently has physical backing.
func (f *FTL) IsMapped(lba LBA) bool {
	return uint64(lba) < f.logicalPages && f.l2p[lba] != invalidPPA
}

// ReadInto reads the page backing lba into a caller-owned page-sized buffer:
// ReadRangeInto over the whole page. Completion time accounts for die and
// channel contention.
func (f *FTL) ReadInto(now sim.Time, lba LBA, buf []byte) (sim.Time, error) {
	if len(buf) != f.geo.PageSize {
		return now, fmt.Errorf("%w: %d != %d", ErrBadLength, len(buf), f.geo.PageSize)
	}
	return f.ReadRangeInto(now, lba, 0, buf)
}

// ReadRangeInto reads the page backing lba with whole-page timing and
// traffic, writing only the page bytes [off, off+len(dst)) into dst; an
// empty dst reads for timing alone (see nand.Array.ReadPageRange).
func (f *FTL) ReadRangeInto(now sim.Time, lba LBA, off int, dst []byte) (sim.Time, error) {
	ppa, err := f.Translate(lba)
	if err != nil {
		return now, err
	}
	done, err := f.arr.ReadPageRange(now, ppa, off, dst)
	if err == nil {
		f.sa.MarkRes(telemetry.StageNAND, done, f.dieLabels[f.geo.DieOf(ppa)])
	}
	return done, err
}

// popFree removes and returns the least-worn free block of a die —
// wear-aware dynamic allocation, so erase cycles spread across the pool
// instead of hammering the most recently freed block.
func (f *FTL) popFree(die int) nand.BlockID {
	pool := f.freeBlocks[die]
	best := 0
	for i, b := range pool {
		if f.eraseCount[b] < f.eraseCount[pool[best]] {
			best = i
		}
	}
	id := pool[best]
	f.freeBlocks[die] = append(pool[:best], pool[best+1:]...)
	return id
}

// allocate returns the next physical page on the striping frontier,
// running GC first if the target die's pool is low. now is needed because
// GC consumes virtual time; the possibly-advanced time is returned.
func (f *FTL) allocate(now sim.Time) (nand.PPA, sim.Time, error) {
	// Channel-major rotation: consecutive allocations land on different
	// channels first, then different ways, so sequential logical pages get
	// maximal bus parallelism (what read-ahead batches rely on).
	idx := f.nextDie
	f.nextDie = (f.nextDie + 1) % f.geo.Dies()
	die := (idx%f.geo.Channels)*f.geo.WaysPerChannel + (idx/f.geo.Channels)%f.geo.WaysPerChannel

	ob := &f.open[die]
	if ob.next >= f.geo.PagesPerBlock {
		// Frontier block is full; retire it and open a new one.
		f.fullBlocks.Set(int(ob.id))
		var err error
		now, err = f.ensureFree(now, die)
		if err != nil {
			return 0, now, err
		}
		// GC relocations may already have opened (and partially filled) a
		// fresh frontier via allocateOnDie; only open another block if the
		// frontier is still full, or that block would leak.
		if ob.next >= f.geo.PagesPerBlock {
			*ob = openBlock{id: f.popFree(die), next: 0}
		}
	}
	first := f.geo.FirstPPA(ob.id)
	ppa := first + nand.PPA(ob.next)
	ob.next++
	return ppa, now, nil
}

// ensureFree runs GC on a die until its pool has at least GCFreeBlockLow
// blocks.
func (f *FTL) ensureFree(now sim.Time, die int) (sim.Time, error) {
	for len(f.freeBlocks[die]) < f.cfg.GCFreeBlockLow {
		var err error
		now, err = f.collectDie(now, die)
		if err != nil {
			return now, err
		}
	}
	return now, nil
}

// collectDie performs one greedy GC cycle on a die: pick the full block with
// the fewest live pages, relocate them, erase.
func (f *FTL) collectDie(now sim.Time, die int) (sim.Time, error) {
	done, err := f.collectDieAt(now, die)
	if err == nil && f.tr.Enabled() {
		f.tr.Span(telemetry.TrackFTL, "gc", now, done)
	}
	return done, err
}

func (f *FTL) collectDieAt(now sim.Time, die int) (sim.Time, error) {
	// Scan the die's closed blocks in ascending block-ID order: greedy on
	// live-page count, lowest ID breaking ties, so victim selection is
	// deterministic run to run.
	victim := nand.BlockID(0)
	best := -1
	lo, hi := die*f.geo.BlocksPerDie(), (die+1)*f.geo.BlocksPerDie()
	for b := f.fullBlocks.NextSet(lo); b >= 0 && b < hi; b = f.fullBlocks.NextSet(b + 1) {
		id := nand.BlockID(b)
		if best == -1 || f.validCount[id] < best {
			victim, best = id, f.validCount[id]
		}
	}
	if best == -1 || best == f.geo.PagesPerBlock {
		return now, fmt.Errorf("%w: die %d has no reclaimable block", ErrNoSpace, die)
	}
	f.stats.GCRuns++

	first := f.geo.FirstPPA(victim)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		src := first + nand.PPA(i)
		lba := f.p2l[src]
		if lba == invalidLBA {
			continue
		}
		t, err := f.arr.ReadPageInto(now, src, f.relocBuf)
		if err != nil {
			return now, fmt.Errorf("ftl: gc read: %w", err)
		}
		now = t
		// Relocate to the same die's frontier to keep striping stable.
		dst, t2, err := f.allocateOnDie(now, die, victim)
		if err != nil {
			return now, err
		}
		now = t2
		done, err := f.arr.ProgramPage(now, dst, f.relocBuf)
		if err != nil {
			return now, fmt.Errorf("ftl: gc program: %w", err)
		}
		now = done
		f.setMapping(lba, dst)
		f.stats.GCWrites++
	}

	f.fullBlocks.Clear(int(victim))
	done, err := f.arr.EraseBlock(now, victim)
	if err != nil {
		return now, fmt.Errorf("ftl: gc erase: %w", err)
	}
	f.eraseCount[victim]++
	f.stats.BlocksErased++
	f.validCount[victim] = 0
	f.freeBlocks[die] = append(f.freeBlocks[die], victim)
	return done, nil
}

// allocateOnDie gets a frontier page on a specific die (GC relocation),
// never selecting exclude as the new open block.
func (f *FTL) allocateOnDie(now sim.Time, die int, exclude nand.BlockID) (nand.PPA, sim.Time, error) {
	ob := &f.open[die]
	if ob.next >= f.geo.PagesPerBlock {
		f.fullBlocks.Set(int(ob.id))
		if len(f.freeBlocks[die]) == 0 {
			return 0, now, fmt.Errorf("%w: die %d exhausted during GC", ErrNoSpace, die)
		}
		*ob = openBlock{id: f.popFree(die), next: 0}
		if ob.id == exclude {
			// Should be impossible: the victim is not in the free pool yet.
			return 0, now, fmt.Errorf("ftl: internal: reopened GC victim %d", exclude)
		}
	}
	ppa := f.geo.FirstPPA(ob.id) + nand.PPA(ob.next)
	ob.next++
	return ppa, now, nil
}

// setMapping points lba at ppa, invalidating any previous backing.
func (f *FTL) setMapping(lba LBA, ppa nand.PPA) {
	if old := f.l2p[lba]; old != invalidPPA {
		f.unmap(old)
	}
	f.l2p[lba] = ppa
	f.p2l[ppa] = lba
	f.validCount[f.geo.BlockOf(ppa)]++
}

// Write stores one page of data at lba (out-of-place). Completion time
// includes any GC the write triggered.
func (f *FTL) Write(now sim.Time, lba LBA, data []byte) (sim.Time, error) {
	if uint64(lba) >= f.logicalPages {
		return now, fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if len(data) != f.geo.PageSize {
		return now, fmt.Errorf("%w: %d != %d", ErrBadLength, len(data), f.geo.PageSize)
	}
	ppa, now, err := f.allocate(now)
	if err != nil {
		return now, err
	}
	done, err := f.arr.ProgramPage(now, ppa, data)
	if err != nil {
		return now, fmt.Errorf("ftl: write program: %w", err)
	}
	f.setMapping(lba, ppa)
	f.sa.MarkRes(telemetry.StageProgram, done, f.dieLabels[f.geo.DieOf(ppa)])
	return done, nil
}

// Trim drops the mapping for lba; subsequent reads fail with ErrUnmapped
// until rewritten.
func (f *FTL) Trim(lba LBA) error {
	if uint64(lba) >= f.logicalPages {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if old := f.l2p[lba]; old != invalidPPA {
		f.unmap(old)
		f.l2p[lba] = invalidPPA
		f.stats.TrimmedPages++
	}
	return nil
}

// unmap invalidates ppa, a page that stopped backing its LBA, and drops its
// flash content: no read reaches a page the FTL does not map.
func (f *FTL) unmap(ppa nand.PPA) {
	f.p2l[ppa] = invalidLBA
	f.validCount[f.geo.BlockOf(ppa)]--
	f.arr.Discard(ppa)
}

// Preload maps lba to a frontier page holding deterministic content,
// without consuming virtual time — dataset setup for the benchmarks.
func (f *FTL) Preload(lba LBA) error {
	if uint64(lba) >= f.logicalPages {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	ppa, _, err := f.allocate(0)
	if err != nil {
		return err
	}
	if err := f.arr.Preload(ppa); err != nil {
		return fmt.Errorf("ftl: preload: %w", err)
	}
	f.setMapping(lba, ppa)
	return nil
}

// CheckInvariants validates internal consistency; property tests call it
// after random operation sequences. It returns the first violation found.
func (f *FTL) CheckInvariants() error {
	// l2p and p2l must be mutual inverses.
	for lba, ppa := range f.l2p {
		if ppa == invalidPPA {
			continue
		}
		if f.p2l[ppa] != LBA(lba) {
			return fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", lba, ppa, ppa, f.p2l[ppa])
		}
	}
	valid := make([]int, len(f.validCount))
	for ppa, lba := range f.p2l {
		if lba == invalidLBA {
			continue
		}
		if f.l2p[lba] != nand.PPA(ppa) {
			return fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", ppa, lba, lba, f.l2p[lba])
		}
		valid[f.geo.BlockOf(nand.PPA(ppa))]++
	}
	for b, want := range valid {
		if f.validCount[b] != want {
			return fmt.Errorf("validCount[%d]=%d, recount=%d", b, f.validCount[b], want)
		}
	}
	// Every erase is counted once per block and once in the stats.
	var erases uint64
	for _, e := range f.eraseCount {
		erases += uint64(e)
	}
	if erases != f.stats.BlocksErased {
		return fmt.Errorf("erase counters sum to %d, stats count %d", erases, f.stats.BlocksErased)
	}
	return nil
}
