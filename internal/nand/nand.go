// Package nand models a NAND flash array: the geometry (channels, ways,
// planes, blocks, pages), the physical timing (MLC tR/tPROG/tBERS plus
// channel bus transfer), and the physical constraints (erase-before-
// program, in-order programming within a block).
//
// The paper's prototype device is an 8-channel, 8-way NVMe SSD (Figure 5);
// the defaults mirror it. Timing accumulates on sim resources so that
// channel-level parallelism and contention emerge naturally.
//
// Capacity is sparse: only programmed pages store real bytes, and only
// while the FTL maps them (see Discard). Pages "preloaded" with file data
// (the multi-gigabyte datasets the paper's workloads read) return
// deterministic content instead of materializing hundreds of gigabytes of
// host RAM: one page template XORed with a per-page key (patternSource);
// see Preload.
package nand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pipette/internal/bitset"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// The medium is MLC, the paper's: its measured block-read latencies
// (Figure 8, ~67 us) are consistent with tR ≈ 50 us. The values are typical
// datasheet figures (DESIGN.md §5).
const (
	ReadPageTime   = 50 * sim.Microsecond  // tR: cell array -> page register
	ProgramTime    = 600 * sim.Microsecond // tPROG
	EraseBlockTime = 5 * sim.Millisecond   // tBERS

	// RBER is the raw bit error rate: the probability a single sensed bit
	// is wrong before ECC. The fault injector's rber* rules are resolved
	// against it.
	RBER = 1e-7

	// ChannelMBps is the per-channel bus bandwidth, MiB/s.
	ChannelMBps = 400
	// ContentSeed seeds the deterministic preloaded content.
	ContentSeed = 0x9153_e2b1
)

// Config describes an array. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	Channels       int // independent buses
	WaysPerChannel int // dies per channel
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes
}

// DefaultConfig mirrors the paper's YS9203 platform (8 channels x 8 ways)
// with a scaled-down block count so tests construct quickly; the benchmark
// harness sizes BlocksPerPlane to the dataset.
func DefaultConfig() Config {
	return Config{
		Channels:       8,
		WaysPerChannel: 8,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  256,
		PageSize:       4096,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0, c.WaysPerChannel <= 0, c.PlanesPerDie <= 0,
		c.BlocksPerPlane <= 0, c.PagesPerBlock <= 0:
		return errors.New("nand: all geometry dimensions must be positive")
	case c.PageSize <= 0 || c.PageSize%8 != 0 || c.PageSize > MaxPageSize:
		return fmt.Errorf("nand: page size %d must be a positive multiple of 8 up to %d", c.PageSize, MaxPageSize)
	}
	return nil
}

// Dies reports the number of dies in the array.
func (c Config) Dies() int { return c.Channels * c.WaysPerChannel }

// BlocksPerDie reports blocks in one die.
func (c Config) BlocksPerDie() int { return c.PlanesPerDie * c.BlocksPerPlane }

// TotalBlocks reports the number of physical blocks.
func (c Config) TotalBlocks() int { return c.Dies() * c.BlocksPerDie() }

// PagesPerDie reports pages in one die.
func (c Config) PagesPerDie() int { return c.BlocksPerDie() * c.PagesPerBlock }

// TotalPages reports the number of physical pages.
func (c Config) TotalPages() uint64 {
	return uint64(c.Dies()) * uint64(c.PagesPerDie())
}

// transferTime is the channel bus occupancy to move n bytes.
func transferTime(n int) sim.Time {
	return sim.Time(float64(n) / (ChannelMBps * (1 << 20)) * float64(sim.Second))
}

// PPA is a physical page address, a flat index over the whole array.
// Encoding: (((die * planes + plane) * blocksPerPlane + block) *
// pagesPerBlock) + page, with die = channel*ways + way.
type PPA uint64

// PPAOf builds a PPA from coordinates. Panics on out-of-range coordinates;
// PPAs are produced by the FTL, which owns the geometry.
func (c Config) PPAOf(channel, way, plane, block, page int) PPA {
	if channel < 0 || channel >= c.Channels || way < 0 || way >= c.WaysPerChannel ||
		plane < 0 || plane >= c.PlanesPerDie || block < 0 || block >= c.BlocksPerPlane ||
		page < 0 || page >= c.PagesPerBlock {
		panic(fmt.Sprintf("nand: PPA coordinates out of range (%d,%d,%d,%d,%d)", channel, way, plane, block, page))
	}
	die := channel*c.WaysPerChannel + way
	return PPA(((uint64(die)*uint64(c.PlanesPerDie)+uint64(plane))*uint64(c.BlocksPerPlane)+uint64(block))*uint64(c.PagesPerBlock) + uint64(page))
}

// Decompose splits a PPA into coordinates.
func (c Config) Decompose(p PPA) (channel, way, plane, block, page int) {
	v := uint64(p)
	page = int(v % uint64(c.PagesPerBlock))
	v /= uint64(c.PagesPerBlock)
	block = int(v % uint64(c.BlocksPerPlane))
	v /= uint64(c.BlocksPerPlane)
	plane = int(v % uint64(c.PlanesPerDie))
	v /= uint64(c.PlanesPerDie)
	die := int(v)
	return die / c.WaysPerChannel, die % c.WaysPerChannel, plane, block, page
}

// ChannelOf reports the channel a PPA lives on.
func (c Config) ChannelOf(p PPA) int { return c.DieOf(p) / c.WaysPerChannel }

// DieOf reports the die index of a PPA: the PPA encoding puts the die
// above every in-die coordinate, so one division by the pages per die
// finds it.
func (c Config) DieOf(p PPA) int {
	return int(uint64(p) / (uint64(c.PagesPerBlock) * uint64(c.BlocksPerPlane) * uint64(c.PlanesPerDie)))
}

// BlockID identifies a physical block (die, plane, block) as a flat index.
type BlockID uint32

// BlockOf reports the flat block id containing a PPA.
func (c Config) BlockOf(p PPA) BlockID {
	return BlockID(uint64(p) / uint64(c.PagesPerBlock))
}

// FirstPPA returns the PPA of page 0 of a block.
func (c Config) FirstPPA(b BlockID) PPA {
	return PPA(uint64(b) * uint64(c.PagesPerBlock))
}

// Stats counts physical operations.
type Stats struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
	BytesOut uint64 // bytes moved over channel buses to the controller
	BytesIn  uint64
}

// Errors returned by array operations.
var (
	ErrNotErased   = errors.New("nand: programming a page that is not erased")
	ErrOutOfOrder  = errors.New("nand: pages within a block must be programmed in order")
	ErrBadLength   = errors.New("nand: data length does not match page size")
	ErrOutOfRange  = errors.New("nand: address out of range")
	ErrNotProgram  = errors.New("nand: reading an unwritten page")
	ErrDiscarded   = errors.New("nand: reading a discarded page")
	ErrEraseActive = errors.New("nand: block has programmed pages; erase first")
)

// blockState tracks per-block programming progress and where the block's
// programmed bytes live, so a read finds everything it checks in one place.
type blockState struct {
	nextPage  int32 // next programmable page index
	discarded bool  // some page lost its content since the last erase
	// slots maps page -> content store slot, -1 for none; nil until the
	// block is first programmed, so read-only blocks carry no table.
	slots []int32
}

// Array is the flash device. Operations take the current virtual time and
// return the operation's completion time; the caller (SSD controller)
// advances its own clock.
type Array struct {
	cfg   Config
	dies  *sim.ResourceSet // die occupancy: tR / tPROG / tBERS
	buses *sim.ResourceSet // channel bus occupancy: data transfer

	store   pageStore  // materialized bytes of programmed, undiscarded pages
	loaded  bitset.Set // preloaded, undiscarded pages (deterministic content)
	blocks  []blockState
	stats   Stats
	pattern patternSource

	// Geometry fixed at New, so the per-page paths skip re-deriving it.
	totalPages  uint64
	pagesPerDie uint64
	pageXfer    sim.Time // bus time of one whole-page transfer

	tr        telemetry.Tracer
	dieTracks []string // per-die span track names ("nand/d3")
	chTracks  []string // per-channel span track names ("nand/ch0")

	chRes  []*resource.Timeline // per-channel occupancy timelines (nil = off)
	dieRes []*resource.Timeline // per-die occupancy timelines
}

// New creates an array. The whole device starts erased.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:     cfg,
		dies:    sim.NewResourceSet(cfg.Dies()),
		buses:   sim.NewResourceSet(cfg.Channels),
		store:   pageStore{pageSize: cfg.PageSize},
		loaded:  bitset.New(int(cfg.TotalPages())),
		blocks:  make([]blockState, cfg.TotalBlocks()),
		pattern: patternSource{seed: ContentSeed},

		totalPages:  cfg.TotalPages(),
		pagesPerDie: uint64(cfg.PagesPerDie()),
		pageXfer:    transferTime(cfg.PageSize),

		tr: telemetry.Nop(),
	}
	return a, nil
}

// SetTracer installs a tracer. Per-die and per-channel track names are
// precomputed so the hot path does no formatting.
func (a *Array) SetTracer(tr telemetry.Tracer) {
	a.tr = telemetry.OrNop(tr)
	if !a.tr.Enabled() {
		return
	}
	a.dieTracks = make([]string, a.cfg.Dies())
	for i := range a.dieTracks {
		a.dieTracks[i] = fmt.Sprintf("nand/d%d", i)
	}
	a.chTracks = make([]string, a.cfg.Channels)
	for i := range a.chTracks {
		a.chTracks[i] = fmt.Sprintf("nand/ch%d", i)
	}
}

// SetResources registers the array's channels and dies with a resource
// tracker: one timeline per channel bus ("nand.ch0") and one per die
// ("nand.ch0.w0" — channel × way), in that order. A nil tracker turns
// recording off.
func (a *Array) SetResources(rt *resource.Tracker) {
	if rt == nil {
		a.chRes, a.dieRes = nil, nil
		return
	}
	a.chRes = make([]*resource.Timeline, a.cfg.Channels)
	for ch := range a.chRes {
		a.chRes[ch] = rt.Register(fmt.Sprintf("nand.ch%d", ch))
	}
	a.dieRes = make([]*resource.Timeline, a.cfg.Dies())
	for die := range a.dieRes {
		a.dieRes[die] = rt.Register(fmt.Sprintf("nand.ch%d.w%d",
			die/a.cfg.WaysPerChannel, die%a.cfg.WaysPerChannel))
	}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Stats returns a copy of the operation counters.
func (a *Array) Stats() Stats { return a.stats }

// dieOf is Config.DieOf with the pages per die computed once.
func (a *Array) dieOf(p PPA) int { return int(uint64(p) / a.pagesPerDie) }

func (a *Array) checkPPA(p PPA) error {
	if uint64(p) >= a.totalPages {
		return fmt.Errorf("%w: ppa %d >= %d", ErrOutOfRange, p, a.totalPages)
	}
	return nil
}

// ReadPageInto senses one page and transfers it to the controller, writing
// it into a caller-owned page-sized buffer: ReadPageRange over the whole
// page. It returns the completion time.
func (a *Array) ReadPageInto(now sim.Time, p PPA, buf []byte) (sim.Time, error) {
	if len(buf) != a.cfg.PageSize {
		return now, fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(buf), a.cfg.PageSize)
	}
	return a.ReadPageRange(now, p, 0, buf)
}

// ReadPageRange senses page p and transfers it to the controller, writing
// only the page bytes [off, off+len(dst)) into dst. Timing and counters are
// those of a whole-page read whatever the range: the die senses the full
// page and the bus moves all of it. An empty dst does the timing alone, so
// the simulator builds flash content only where a consumer reads it.
func (a *Array) ReadPageRange(now sim.Time, p PPA, off int, dst []byte) (sim.Time, error) {
	if err := a.checkPPA(p); err != nil {
		return now, err
	}
	if off < 0 || off+len(dst) > a.cfg.PageSize {
		return now, fmt.Errorf("%w: bytes [%d,%d) of a %d-byte page", ErrOutOfRange, off, off+len(dst), a.cfg.PageSize)
	}
	stored, err := a.content(p)
	if err != nil {
		return now, err
	}

	die := a.dieOf(p)
	ch := die / a.cfg.WaysPerChannel
	senseStart, senseEnd := a.dies.Acquire(die, now, ReadPageTime)
	txStart, done := a.buses.Acquire(ch, senseEnd, a.pageXfer)
	if a.tr.Enabled() {
		a.tr.Span(a.dieTracks[die], "tR", senseStart, senseEnd)
		a.tr.Span(a.chTracks[ch], "xfer", txStart, done)
	}
	if a.dieRes != nil {
		a.dieRes[die].Add(senseStart, senseEnd)
		a.chRes[ch].Add(txStart, done)
	}

	a.stats.Reads++
	a.stats.BytesOut += uint64(a.cfg.PageSize)
	a.copyOut(p, stored, off, dst)
	return done, nil
}

// PeekRange returns len(buf) bytes of a page's content starting at off,
// without timing or stats — the oracle used by tests and by the host to
// verify end-to-end correctness. A page PeekRange serves is exactly one
// ReadPageRange serves: it fails the same way on an unwritten or discarded
// page.
func (a *Array) PeekRange(p PPA, off int, buf []byte) error {
	if err := a.checkPPA(p); err != nil {
		return err
	}
	if off < 0 || off+len(buf) > a.cfg.PageSize {
		return fmt.Errorf("%w: bytes [%d,%d) of a %d-byte page", ErrOutOfRange, off, off+len(buf), a.cfg.PageSize)
	}
	stored, err := a.content(p)
	if err != nil {
		return err
	}
	a.copyOut(p, stored, off, buf)
	return nil
}

// content finds the bytes of page p, an in-range PPA, for a read or a
// peek: its store slot if it was programmed, nil if it holds preloaded
// pattern content, or the error that makes it unreadable.
func (a *Array) content(p PPA) ([]byte, error) {
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	page := int32(p - a.cfg.FirstPPA(b))
	switch {
	case page >= bs.nextPage:
		return nil, fmt.Errorf("%w: ppa %d", ErrNotProgram, p)
	case bs.slots != nil && bs.slots[page] >= 0:
		return a.store.page(bs.slots[page]), nil
	case !bs.discarded || a.loaded.Get(int(p)):
		// Programmed without a slot: preloaded, unless a discard took it.
		return nil, nil
	}
	return nil, fmt.Errorf("%w: ppa %d", ErrDiscarded, p)
}

// copyOut writes the page bytes [off, off+len(dst)) of page p into dst:
// from stored, content's result, or the pattern when stored is nil.
func (a *Array) copyOut(p PPA, stored []byte, off int, dst []byte) {
	if len(dst) == 0 {
		return // a timing-only read builds nothing
	}
	if stored != nil {
		copy(dst, stored[off:])
	} else {
		a.pattern.fill(p, off, dst)
	}
}

// ProgramPage writes one full page. NAND constraints are enforced: the
// target page must be erased, and pages within a block must be programmed
// in ascending order.
func (a *Array) ProgramPage(now sim.Time, p PPA, data []byte) (sim.Time, error) {
	if err := a.checkPPA(p); err != nil {
		return now, err
	}
	if len(data) != a.cfg.PageSize {
		return now, fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(data), a.cfg.PageSize)
	}
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	page := int32(p - a.cfg.FirstPPA(b))
	switch {
	case page < bs.nextPage:
		return now, fmt.Errorf("%w: page %d already programmed", ErrNotErased, page)
	case page > bs.nextPage:
		return now, fmt.Errorf("%w: page %d, expected %d", ErrOutOfOrder, page, bs.nextPage)
	}

	// Bus transfer into the page register, then the program pulse.
	die := a.dieOf(p)
	ch := die / a.cfg.WaysPerChannel
	txStart, txEnd := a.buses.Acquire(ch, now, a.pageXfer)
	progStart, done := a.dies.Acquire(die, txEnd, ProgramTime)
	if a.tr.Enabled() {
		a.tr.Span(a.chTracks[ch], "xfer", txStart, txEnd)
		a.tr.Span(a.dieTracks[die], "tPROG", progStart, done)
	}
	if a.dieRes != nil {
		a.chRes[ch].Add(txStart, txEnd)
		a.dieRes[die].Add(progStart, done)
	}

	if bs.slots == nil {
		bs.slots = make([]int32, a.cfg.PagesPerBlock)
		for i := range bs.slots {
			bs.slots[i] = -1
		}
	}
	bs.slots[page] = a.store.take()
	copy(a.store.page(bs.slots[page]), data)
	bs.nextPage = page + 1
	a.stats.Programs++
	a.stats.BytesIn += uint64(len(data))
	return done, nil
}

// EraseBlock erases a block, resetting its program pointer and dropping its
// contents.
func (a *Array) EraseBlock(now sim.Time, b BlockID) (sim.Time, error) {
	if int(b) >= len(a.blocks) {
		return now, ErrOutOfRange
	}
	bs := &a.blocks[b]
	a.dropContent(b)
	bs.nextPage = 0
	first := a.cfg.FirstPPA(b)
	die := a.dieOf(first)
	eraseStart, done := a.dies.Acquire(die, now, EraseBlockTime)
	if a.tr.Enabled() {
		a.tr.Span(a.dieTracks[die], "tBERS", eraseStart, done)
	}
	if a.dieRes != nil {
		a.dieRes[die].Add(eraseStart, done)
	}
	a.stats.Erases++
	return done, nil
}

// Discard drops the content of page p: the FTL calls it when it stops
// mapping p, on an overwrite, a GC move and a trim. The page stays
// programmed for the block's program order and its erase, but its store
// slot goes back to the pool, and a later read or peek of it fails with
// ErrDiscarded. Discarding a page that holds no content, or an
// out-of-range PPA, does nothing.
func (a *Array) Discard(p PPA) {
	if uint64(p) >= a.totalPages {
		return
	}
	a.loaded.Clear(int(p))
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	bs.discarded = true
	if bs.slots != nil {
		page := p - a.cfg.FirstPPA(b)
		if slot := bs.slots[page]; slot >= 0 {
			a.store.release(slot)
			bs.slots[page] = -1
		}
	}
}

// dropContent returns every store slot of block b to the pool, clears its
// preloaded pages and forgets its discards: nothing in it is readable.
func (a *Array) dropContent(b BlockID) {
	first := int(a.cfg.FirstPPA(b))
	for i := 0; i < a.cfg.PagesPerBlock; i++ {
		a.loaded.Clear(first + i)
	}
	bs := &a.blocks[b]
	for i, slot := range bs.slots {
		if slot >= 0 {
			a.store.release(slot)
			bs.slots[i] = -1
		}
	}
	bs.discarded = false
}

// ContentPages reports how many pages hold materialized bytes: programmed
// pages not yet discarded or erased. Preloaded pages hold none.
func (a *Array) ContentPages() int { return int(a.store.carved) - len(a.store.free) }

// Preload marks a page as holding deterministic seed-derived content, as if
// it had been programmed, without materializing bytes or consuming virtual
// time. It is the setup path for the multi-gigabyte read-mostly datasets of
// the paper's workloads. The block's program pointer advances as for a real
// program so subsequent NAND constraints still hold.
func (a *Array) Preload(p PPA) error {
	if err := a.checkPPA(p); err != nil {
		return err
	}
	b := a.cfg.BlockOf(p)
	bs := &a.blocks[b]
	page := int32(p - a.cfg.FirstPPA(b))
	switch {
	case page < bs.nextPage:
		return fmt.Errorf("%w: page %d already programmed", ErrNotErased, page)
	case page > bs.nextPage:
		return fmt.Errorf("%w: page %d, expected %d", ErrOutOfOrder, page, bs.nextPage)
	}
	a.loaded.Set(int(p))
	bs.nextPage = page + 1
	return nil
}

// MaxPageSize is the largest PageSize Validate accepts: the bytes tmpl
// covers.
const MaxPageSize = 16 << 10

// tmplSeed seeds the page template.
const tmplSeed = 0x2545_f491_4f6c_dd1d

// tmpl is the page template behind all preloaded content: word w, stored
// little-endian at bytes [8w, 8w+8), is Mix64(tmplSeed + w).
var tmpl = func() (t [MaxPageSize]byte) {
	for w := 0; w < MaxPageSize/8; w++ {
		binary.LittleEndian.PutUint64(t[8*w:], sim.Mix64(tmplSeed+uint64(w)))
	}
	return t
}()

// patternSource generates deterministic page content from (seed, ppa):
// word w of page p is template word w XOR the page's key. Mix64 is a
// bijection, so the template's words are pairwise distinct (a read served
// from the wrong offset of the right page shows) and every page has its own
// key (a read served from the wrong page differs in every word).
type patternSource struct {
	seed uint64
}

// key is the word mask of page p.
func (ps patternSource) key(p PPA) uint64 {
	return sim.Mix64(ps.seed ^ uint64(p))
}

// word is pattern word wordIdx of page p: page byte a is byte a&7 of the
// little-endian word(p, a>>3). It derives the word from the rule itself,
// not from tmpl, and is the reference every fill path is tested against.
func (ps patternSource) word(p PPA, wordIdx int) uint64 {
	return sim.Mix64(tmplSeed+uint64(wordIdx)) ^ ps.key(p)
}

// fill writes the pattern bytes of page p starting at byte offset off. On
// AVX2 hosts the body's 128-byte groups go to the vector kernel
// (fill_amd64.s); everything else runs the Go loop.
func (ps patternSource) fill(p PPA, off int, buf []byte) {
	ps.fillUsing(p, off, buf, vectorFill)
}

// fillUsing is fill's body; vector false is the Go loop alone, as on hosts
// without the kernel. Page byte a is tmpl byte a XOR key byte a&7, so the
// key rotated right by off's byte lane masks every 8-byte group of buf, at
// any offset; the tail under 8 bytes goes byte by byte.
func (ps patternSource) fillUsing(p PPA, off int, buf []byte, vector bool) {
	src := tmpl[off : off+len(buf)]
	k := bits.RotateLeft64(ps.key(p), -8*(off&7))
	i := 0
	if n := len(buf) &^ 127; vector && n > 0 {
		xorKey(buf[:n], src, k)
		i = n
	}
	for ; len(buf)-i >= 32; i += 32 {
		d, s := (*[32]byte)(buf[i:]), (*[32]byte)(src[i:])
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(s[0:])^k)
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:])^k)
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(s[16:])^k)
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(s[24:])^k)
	}
	for ; len(buf)-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], binary.LittleEndian.Uint64(src[i:])^k)
	}
	for ; i < len(buf); i, k = i+1, k>>8 {
		buf[i] = src[i] ^ byte(k)
	}
}

// ExpectedContent is the package-level oracle for preloaded (never-written)
// page content: len(buf) bytes of page p from byte offset off.
func ExpectedContent(p PPA, off int, buf []byte) {
	patternSource{seed: ContentSeed}.fill(p, off, buf)
}
