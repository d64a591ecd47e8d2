// Package hmb models the Host Memory Buffer: host DRAM that the host lends
// to the SSD controller at initialization, with a standing DMA mapping so
// neither side pays a per-access mapping cost afterwards (the key advantage
// Pipette has over 2B-SSD's CMB approach, §3.1.1).
//
// The region is partitioned exactly as the paper's Figure 3 shows:
//
//   - Info Area — a ring of records jointly managed by host and device.
//     The host appends a record (destination address, byte offset, byte
//     length) for each outstanding fine-grained read and bumps the tail;
//     the device consumes records while serving the reconstructed read and
//     bumps the head.
//   - Data Area — the arena the fine-grained read cache's slab allocator
//     carves up; the device DMAs demanded byte ranges directly into it.
//   - TempBuf Area — a rotating bounce buffer for low-reuse data that the
//     adaptive cache declines to admit, so cold data never pollutes the
//     Data Area.
//
// The Data and TempBuf Areas live in an anonymous private OS mapping where
// the platform has one (demand-zero pages, outside the Go heap), so a page
// costs host RAM only once the device DMAs into it or the fine cache
// writes it; elsewhere, or if the mapping fails, in an ordinary slice. A
// finalizer unmaps the region once it is unreachable. No view of the
// mapping ever leaves the package: callers copy in and out through WriteAt
// and ReadAt, and FlipBit corrupts a byte in place (DESIGN.md §4,
// decision 17).
package hmb

import (
	"errors"
	"fmt"
	"runtime"

	"pipette/internal/fault"
	"pipette/internal/sim"
)

// InfoRecord is one Info Area entry, written by the host's Constructor and
// consumed by the device's Fine-Grained Read Engine.
type InfoRecord struct {
	LBA     uint64 // logical page holding the data
	ByteOff int    // offset of the demanded range within the page
	ByteLen int    // length of the demanded range
	Dest    int    // destination offset within the HMB region

	// Sum seals the record against corruption while it sits in shared
	// host memory. Push fills it; Consume verifies it.
	Sum uint32
}

// recSum is the integrity checksum over a record's payload fields.
func recSum(rec InfoRecord) uint32 {
	h := sim.Mix64(rec.LBA)
	h = sim.Mix64(h ^ uint64(uint32(rec.ByteOff)))
	h = sim.Mix64(h ^ uint64(uint32(rec.ByteLen)))
	h = sim.Mix64(h ^ uint64(uint32(rec.Dest)))
	return uint32(h ^ h>>32)
}

// Ring errors.
var (
	ErrRingFull  = errors.New("hmb: info ring full")
	ErrRingEmpty = errors.New("hmb: info ring empty")
	// ErrCorruptRecord reports a consumed record whose checksum does not
	// cover its fields anymore. The head still advances past it — the
	// device must not wedge the ring on one bad entry — and the caller
	// re-serves the request through the block path.
	ErrCorruptRecord = errors.New("hmb: corrupt info record")
)

// InfoRing is the Info Area: a bounded ring with a host-owned tail and a
// device-owned head.
type InfoRing struct {
	records []InfoRecord
	head    uint32 // device-advanced: consumed
	tail    uint32 // host-advanced: produced

	inj *fault.Injector
}

// SetInjector arms hmb.ring fault injection: records may corrupt between
// the host's append and the device's consume.
func (r *InfoRing) SetInjector(inj *fault.Injector) { r.inj = inj }

// corrupt flips one bit of one payload field, both selected by the
// injection severity draw.
func corrupt(rec *InfoRecord, sev float64) {
	bit := uint(sev*64) % 64
	switch uint(sev*251) % 4 {
	case 0:
		rec.LBA ^= 1 << bit
	case 1:
		rec.ByteOff ^= 1 << (bit % 30)
	case 2:
		rec.ByteLen ^= 1 << (bit % 30)
	default:
		rec.Dest ^= 1 << (bit % 30)
	}
}

// NewInfoRing creates a ring with the given number of record slots.
func NewInfoRing(slots int) *InfoRing {
	if slots < 2 {
		panic("hmb: info ring needs >= 2 slots")
	}
	return &InfoRing{records: make([]InfoRecord, slots)}
}

// Pending reports records produced but not yet consumed.
func (r *InfoRing) Pending() int { return int(r.tail - r.head) }

// Cap reports usable capacity.
func (r *InfoRing) Cap() int { return len(r.records) - 1 }

// Push appends a record and advances the tail (host side, Figure 4 step 3a).
// The record is sealed with its checksum; under fault injection it may then
// corrupt in place, modeling a flipped bit while the entry sits in shared
// host memory.
func (r *InfoRing) Push(rec InfoRecord) error {
	if r.Pending() >= r.Cap() {
		return ErrRingFull
	}
	rec.Sum = recSum(rec)
	if out := r.inj.Check(fault.SiteHMBRing, rec.LBA); out.Hit {
		corrupt(&rec, out.Sev)
	}
	r.records[r.tail%uint32(len(r.records))] = rec
	r.tail++
	return nil
}

// Consume removes the oldest record and advances the head (device side,
// Figure 4 step 3b). A record that fails its checksum is still consumed —
// the ring must not wedge — and returned alongside ErrCorruptRecord.
func (r *InfoRing) Consume() (InfoRecord, error) {
	if r.Pending() == 0 {
		return InfoRecord{}, ErrRingEmpty
	}
	rec := r.records[r.head%uint32(len(r.records))]
	r.head++
	if rec.Sum != recSum(rec) {
		return rec, ErrCorruptRecord
	}
	return rec, nil
}

// Head reports the device-advanced consume counter (the host reads this to
// learn which requests completed).
func (r *InfoRing) Head() uint32 { return r.head }

// The fixed parts of the region, sized to the paper's 64 MB HMB mapping
// region (Figure 5): the Data Area takes the rest.
const (
	TempBufBytes = 1 << 20 // TempBuf Area size
	TempSlot     = 4096    // max bytes of one temp transfer (>= largest fine read)
	InfoSlots    = 1024    // Info Area ring capacity
)

// Config sizes the HMB region.
type Config struct {
	DataBytes int // Data Area size (slab arena)
}

// DefaultConfig sizes a region matching the paper's 64 MB HMB mapping
// region (Figure 5), mostly Data Area.
func DefaultConfig() Config {
	return Config{DataBytes: 60 << 20}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.DataBytes <= 0 {
		return errors.New("hmb: DataBytes must be positive")
	}
	return nil
}

// Region is the shared memory block. Offsets are region-relative; the Data
// Area starts at offset 0 and the TempBuf Area follows it.
type Region struct {
	cfg  Config
	buf  []byte // the mapping (or slice) behind the Data and TempBuf Areas
	info *InfoRing

	tempBase int
	tempNext int // rotating allocation cursor within the TempBuf Area
}

// New allocates a region. Its bytes read as zeros until written.
func New(cfg Config) (*Region, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Region{
		cfg:      cfg,
		info:     NewInfoRing(InfoSlots),
		tempBase: cfg.DataBytes,
	}
	n := cfg.DataBytes + TempBufBytes
	if r.buf = mapAnon(n); r.buf != nil {
		runtime.SetFinalizer(r, (*Region).unmap)
	} else {
		r.buf = make([]byte, n)
	}
	return r, nil
}

// unmap releases the mapping of a region nothing references any more.
func (r *Region) unmap() { unmapAnon(r.buf) }

// Info returns the Info Area ring.
func (r *Region) Info() *InfoRing { return r.info }

// DataSize reports the Data Area size (the slab arena the cache manages).
func (r *Region) DataSize() int { return r.cfg.DataBytes }

// AllocTemp reserves a TempBuf destination of n bytes and returns its
// region offset. Slots rotate; data in a temp slot is only valid until the
// ring wraps, which is fine because the host copies it out immediately on
// completion (that is the point of the TempBuf: no residency).
func (r *Region) AllocTemp(n int) (int, error) {
	if n <= 0 || n > TempSlot {
		return 0, fmt.Errorf("hmb: temp alloc %d outside (0, %d]", n, TempSlot)
	}
	if r.tempNext+n > TempBufBytes {
		r.tempNext = 0
	}
	off := r.tempBase + r.tempNext
	r.tempNext += n
	return off, nil
}

// InTempArea reports whether a region offset falls inside the TempBuf Area.
func (r *Region) InTempArea(off int) bool {
	return off >= r.tempBase && off < len(r.buf)
}

// WriteAt copies data into the region at off — the device's DMA landing.
func (r *Region) WriteAt(off int, data []byte) error {
	if off < 0 || off+len(data) > len(r.buf) {
		return fmt.Errorf("hmb: write [%d,%d) outside region of %d", off, off+len(data), len(r.buf))
	}
	copy(r.buf[off:], data)
	runtime.KeepAlive(r)
	return nil
}

// ReadAt copies len(buf) bytes from the region at off — the host's load.
func (r *Region) ReadAt(off int, buf []byte) error {
	if off < 0 || off+len(buf) > len(r.buf) {
		return fmt.Errorf("hmb: read [%d,%d) outside region of %d", off, off+len(buf), len(r.buf))
	}
	copy(buf, r.buf[off:])
	runtime.KeepAlive(r)
	return nil
}

// FlipBit inverts bit (0 = least significant) of the byte at off, in
// place — a bit the DMA link corrupted after landing.
func (r *Region) FlipBit(off int, bit uint) error {
	if off < 0 || off >= len(r.buf) || bit > 7 {
		return fmt.Errorf("hmb: flip bit %d of byte %d outside region of %d", bit, off, len(r.buf))
	}
	r.buf[off] ^= 1 << bit
	runtime.KeepAlive(r)
	return nil
}
