// Package nvme models the transport between host and SSD: submission and
// completion queue rings with doorbells, the command set the simulator needs
// (block read/write, flush, dataset-management TRIM), and the vendor
// extension the paper adds for fine-grained reads (§4.1: "We also extend the
// NVMe command set to support fine-grained reads").
//
// Queues are real rings with wrap-around and full/empty detection. The
// paper's workloads are blocking POSIX reads, so the driver's Submit runs
// each command to completion in virtual time as direct calls, with the
// ring protocol's costs and the shared fetch arbiter modeled explicitly.
package nvme

import (
	"errors"
	"fmt"

	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// Opcode identifies a command.
type Opcode uint8

// The command set. OpFineRead is the paper's vendor extension: the device
// reads the referenced NAND pages, digests pending Info Area records, and
// DMAs only the demanded byte ranges to their host destinations.
const (
	OpFlush Opcode = iota
	OpWrite
	OpRead
	OpFineRead
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "Flush"
	case OpWrite:
		return "Write"
	case OpRead:
		return "Read"
	case OpFineRead:
		return "FineRead"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// Status is a completion status code.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusInvalidCommand
	StatusLBAOutOfRange
	StatusUnmapped
	StatusInternal
	// StatusMediaError: the ECC engine exhausted its read-retry budget;
	// the page's data is unrecoverable from the media.
	StatusMediaError
	// StatusCorruptRing: the device rejected a corrupted Info-Area ring
	// record for a fine read. The host re-serves the request through the
	// block path.
	StatusCorruptRing
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusInvalidCommand:
		return "InvalidCommand"
	case StatusLBAOutOfRange:
		return "LBAOutOfRange"
	case StatusUnmapped:
		return "Unmapped"
	case StatusInternal:
		return "Internal"
	case StatusMediaError:
		return "MediaError"
	case StatusCorruptRing:
		return "CorruptRing"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// ErrUncorrectable is the host-visible form of StatusMediaError. The block
// layer wraps it into its command errors, so the layers above — VFS, KV —
// can classify device data loss with errors.Is.
var ErrUncorrectable = errors.New("nvme: uncorrectable media error")

// Err converts a failed status into a stable error (nil for StatusOK).
// Sentinel-worthy statuses map to package-level errors; the rest render
// generically.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusMediaError:
		return ErrUncorrectable
	default:
		return fmt.Errorf("nvme: status %v", s)
	}
}

// Command is one submission-queue entry.
type Command struct {
	ID    uint16
	Op    Opcode
	LBA   uint64 // starting logical page
	Pages int    // page count for Read/Write

	// Data is the host buffer: the write payload for OpWrite, and the
	// destination the device DMAs into for OpRead (len = Pages*pagesize).
	Data []byte

	// Discard names the pages of an OpRead whose bytes the host will not
	// look at: bit i covers page i. The device still senses, transfers and
	// DMAs every page, so timing and traffic do not change; it only leaves
	// the discarded pages' part of Data unwritten, and the simulator builds
	// no bytes nobody reads. The zero value delivers every page; a non-zero
	// mask needs Pages <= DiscardPages.
	Discard uint64

	// FineLBAs lists the logical pages an OpFineRead touches. The byte
	// ranges and destinations travel out-of-band in the HMB Info Area, as
	// in the paper's design.
	FineLBAs []uint64
}

// DiscardPages is the longest OpRead a Command.Discard mask can describe.
const DiscardPages = 64

// Completion is one completion-queue entry.
type Completion struct {
	ID     uint16
	Status Status
	Done   sim.Time // virtual completion timestamp

	// BytesMoved is device->host traffic this command caused (telemetry
	// the traffic tables are built from).
	BytesMoved uint64

	// PayloadSum is the device-side checksum of a fine read's extracted
	// payload, computed before the DMA lands it in the HMB. Only filled
	// when fault injection is enabled; the host recomputes it over the
	// received bytes to detect in-flight DMA corruption.
	PayloadSum uint32
}

// Ok reports whether the command succeeded.
func (c Completion) Ok() bool { return c.Status == StatusOK }

// Queue errors.
var (
	ErrQueueFull  = errors.New("nvme: queue full")
	ErrQueueEmpty = errors.New("nvme: queue empty")
)

// SQ is a submission ring.
type SQ struct {
	entries []Command
	head    uint32
	tail    uint32
}

// NewSQ creates a submission queue with the given number of slots.
// Size must be >= 2.
func NewSQ(size int) *SQ {
	if size < 2 {
		panic("nvme: SQ size must be >= 2")
	}
	return &SQ{entries: make([]Command, size)}
}

// Len reports queued entries.
func (q *SQ) Len() int { return int(q.tail - q.head) }

// Cap reports usable capacity (one slot is sacrificed to disambiguate
// full/empty, as in real ring protocols).
func (q *SQ) Cap() int { return len(q.entries) - 1 }

// normalize reduces both counters by the largest multiple of the ring
// size at or below head. Slot indices (counter % size) and Len
// (tail - head) are unchanged, and head lands below size, so the
// free-running counters never reach the uint32 overflow — where a size
// that does not divide 2^32 would corrupt the slot sequence.
func (q *SQ) normalize() {
	n := uint32(len(q.entries))
	if q.head >= n {
		k := q.head - q.head%n
		q.head -= k
		q.tail -= k
	}
}

// Push enqueues a command.
func (q *SQ) Push(c Command) error {
	if q.Len() >= q.Cap() {
		return ErrQueueFull
	}
	q.normalize()
	q.entries[q.tail%uint32(len(q.entries))] = c
	q.tail++
	return nil
}

// Pop dequeues the oldest command (the device's fetch).
func (q *SQ) Pop() (Command, error) {
	if q.Len() == 0 {
		return Command{}, ErrQueueEmpty
	}
	q.normalize()
	slot := &q.entries[q.head%uint32(len(q.entries))]
	c := *slot
	*slot = Command{} // the ring must not pin the caller's buffers
	q.head++
	return c, nil
}

// CQ is a completion ring.
type CQ struct {
	entries []Completion
	head    uint32
	tail    uint32
}

// NewCQ creates a completion queue with the given number of slots.
func NewCQ(size int) *CQ {
	if size < 2 {
		panic("nvme: CQ size must be >= 2")
	}
	return &CQ{entries: make([]Completion, size)}
}

// Len reports queued entries.
func (q *CQ) Len() int { return int(q.tail - q.head) }

// Cap reports usable capacity.
func (q *CQ) Cap() int { return len(q.entries) - 1 }

// normalize: see SQ.normalize.
func (q *CQ) normalize() {
	n := uint32(len(q.entries))
	if q.head >= n {
		k := q.head - q.head%n
		q.head -= k
		q.tail -= k
	}
}

// Push posts a completion.
func (q *CQ) Push(c Completion) error {
	if q.Len() >= q.Cap() {
		return ErrQueueFull
	}
	q.normalize()
	q.entries[q.tail%uint32(len(q.entries))] = c
	q.tail++
	return nil
}

// Pop reaps the oldest completion.
func (q *CQ) Pop() (Completion, error) {
	if q.Len() == 0 {
		return Completion{}, ErrQueueEmpty
	}
	q.normalize()
	c := q.entries[q.head%uint32(len(q.entries))]
	q.head++
	return c, nil
}

// The fixed transport overheads on the command path, from measured NVMe
// small-command costs.
const (
	DoorbellCost   = 100 * sim.Nanosecond // host MMIO doorbell write
	FetchCost      = 400 * sim.Nanosecond // device SQ entry fetch over PCIe
	CompletionCost = 1 * sim.Microsecond  // CQ post + interrupt/polling pickup
)

// Costs selects the command path's fetch model.
type Costs struct {
	// Arbitration, when positive, turns on serialized SQ-fetch arbitration:
	// the controller's single fetch engine round-robins over the submission
	// queues, occupying it for FetchCost+Arbitration per command, so
	// concurrent submissions queue behind each other before execution even
	// starts. Zero (the default) models infinite fetch bandwidth — every
	// fetch completes DoorbellCost+FetchCost after submission regardless of
	// load, which is the closed-loop model every existing experiment was
	// calibrated on.
	Arbitration sim.Time
}

// DefaultCosts returns the default fetch model: no arbitration.
func DefaultCosts() Costs { return Costs{} }

// Device is the controller side: it executes one fetched command and
// returns its completion. now is the time the device begins executing.
type Device interface {
	Execute(now sim.Time, cmd *Command) Completion
}

// queuePair is one SQ/CQ pair of the transport.
type queuePair struct {
	sq *SQ
	cq *CQ
}

// ResRing is the blame label for completion-side ring time, matching the
// "nvme.ring" resource timeline name. Fetch-side time is blamed on the
// specific SQ pair ("nvme.sq<N>") instead, so arbitration stalls point at
// the queue that suffered them.
var ResRing = telemetry.Intern("nvme.ring")

// Driver is the host side of the transport that the blocking POSIX stack
// submits through: N SQ/CQ pairs of one depth over one device, with each
// command placed on the next pair round-robin. Submit runs one command to
// completion in virtual time as direct calls, in the order the protocol
// runs them: the doorbell, the device's SQ fetch, Execute, and the
// completion's post and reap. A ring therefore never holds more than the
// command being submitted.
//
// Each step starts at the timestamp the step before it returned, so
// callers that submit at overlapping virtual times still see queueing in
// the state that persists across calls: the shared fetch arbiter (with
// Costs.Arbitration > 0) and everything inside the device. That is how the
// open-loop harness models outstanding requests over a synchronous stack.
//
// Submit allocates nothing. It is not re-entrant: the device must not
// submit through the driver it is executing for. Like every sim type, a
// Driver belongs to one single-threaded simulated system.
type Driver struct {
	pairs []queuePair
	dev   Device
	costs Costs

	fetchArb sim.Resource // shared fetch engine (used when Arbitration > 0)

	nextID    uint16
	rr        int // round-robin pair cursor
	submitted uint64
	completed uint64
	// cmd is the fetched entry while the device executes it. Execute takes
	// a pointer to it; a field, unlike a local, keeps that off the heap.
	cmd Command

	tr       telemetry.Tracer
	sa       *telemetry.StageAccount
	ringRes  *resource.Timeline // ring-protocol occupancy (nil = off)
	sqLabels []telemetry.Res    // per-pair blame resources ("nvme.sq0", ...)
}

// NewDriver builds a single queue pair of the given depth over a device.
func NewDriver(dev Device, queueDepth int, costs Costs) *Driver {
	return NewDriverQueues(dev, 1, queueDepth, costs)
}

// NewDriverQueues builds a driver over pairs SQ/CQ pairs of the given
// depth; submissions round-robin across the pairs.
func NewDriverQueues(dev Device, pairs, queueDepth int, costs Costs) *Driver {
	if pairs < 1 {
		pairs = 1
	}
	d := &Driver{
		pairs:    make([]queuePair, pairs),
		dev:      dev,
		costs:    costs,
		tr:       telemetry.Nop(),
		sqLabels: make([]telemetry.Res, pairs),
	}
	for i := range d.pairs {
		d.pairs[i] = queuePair{sq: NewSQ(queueDepth), cq: NewCQ(queueDepth)}
		d.sqLabels[i] = telemetry.Intern(fmt.Sprintf("nvme.sq%d", i))
	}
	return d
}

// Pairs reports the number of SQ/CQ pairs.
func (d *Driver) Pairs() int { return len(d.pairs) }

// Depth reports the usable per-pair queue depth.
func (d *Driver) Depth() int { return d.pairs[0].sq.Cap() }

// SetTracer installs a tracer; each submitted command becomes one span on
// the nvme track, covering doorbell to completion reap.
func (d *Driver) SetTracer(tr telemetry.Tracer) { d.tr = telemetry.OrNop(tr) }

// SetStages installs the per-request stage account; the driver attributes
// the ring-protocol costs (doorbell, fetch, completion).
func (d *Driver) SetStages(sa *telemetry.StageAccount) { d.sa = sa }

// SetRingTimeline records the ring protocol's occupancy windows on a
// resource timeline (nil turns recording off).
func (d *Driver) SetRingTimeline(tl *resource.Timeline) { d.ringRes = tl }

// Stats reports commands submitted and completed.
func (d *Driver) Stats() (submitted, completed uint64) { return d.submitted, d.completed }

// Submit runs one command to completion in virtual time and returns its
// completion, carrying the virtual Done timestamp.
func (d *Driver) Submit(now sim.Time, cmd Command) (Completion, error) {
	pairIdx := d.rr
	pair := &d.pairs[pairIdx]
	cmd.ID = d.nextID
	if err := pair.sq.Push(cmd); err != nil {
		return Completion{}, err
	}
	d.nextID++
	d.rr = (d.rr + 1) % len(d.pairs)
	d.submitted++

	// Doorbell, then the SQ fetch. With arbitration on, the shared fetch
	// engine serializes fetches (FIFO in submit order); otherwise the fetch
	// completes a fixed Doorbell+Fetch after submission, load-independent.
	var fetchEnd sim.Time
	if d.costs.Arbitration > 0 {
		_, fetchEnd = d.fetchArb.Acquire(now+DoorbellCost, FetchCost+d.costs.Arbitration)
	} else {
		fetchEnd = now + DoorbellCost + FetchCost
	}
	d.sa.MarkRes(telemetry.StageRing, fetchEnd, d.sqLabels[pairIdx])
	d.ringRes.Add(now, fetchEnd)

	// The device pops the entry at fetchEnd and executes it.
	var err error
	if d.cmd, err = pair.sq.Pop(); err != nil {
		return Completion{}, fmt.Errorf("nvme: device fetch: %w", err)
	}
	comp := d.dev.Execute(fetchEnd, &d.cmd)
	comp.ID = d.cmd.ID
	op := d.cmd.Op
	d.cmd = Command{} // the driver must not pin the caller's buffers
	execDone := comp.Done
	comp.Done += CompletionCost
	d.sa.MarkRes(telemetry.StageRing, comp.Done, ResRing)
	d.ringRes.Add(execDone, comp.Done)

	// The controller posts the completion, and the host reaps it.
	if err := pair.cq.Push(comp); err != nil {
		return Completion{}, fmt.Errorf("nvme: completion post: %w", err)
	}
	reaped, err := pair.cq.Pop()
	if err != nil {
		return Completion{}, fmt.Errorf("nvme: completion reap: %w", err)
	}
	d.completed++
	if d.tr.Enabled() {
		d.tr.Span(telemetry.TrackNVMe, op.String(), now, reaped.Done)
	}
	return reaped, nil
}
