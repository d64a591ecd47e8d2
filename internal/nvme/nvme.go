// Package nvme models the transport between host and SSD: submission and
// completion queue rings with doorbells, the command set the simulator needs
// (block read/write, flush, dataset-management TRIM), and the vendor
// extension the paper adds for fine-grained reads (§4.1: "We also extend the
// NVMe command set to support fine-grained reads").
//
// Queues are real rings with wrap-around and full/empty detection; the
// driver's Submit is synchronous in virtual time (the paper's workloads are
// blocking POSIX reads), with queueing costs modeled explicitly.
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
	OpTrim
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
	case OpTrim:
		return "Trim"
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
	Pages int    // page count for Read/Write/Trim

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

// Costs models the fixed transport overheads on the command path.
type Costs struct {
	Doorbell   sim.Time // host MMIO doorbell write
	Fetch      sim.Time // device SQ entry fetch over PCIe
	Completion sim.Time // CQ post + interrupt/polling pickup

	// Arbitration, when positive, turns on serialized SQ-fetch arbitration:
	// the controller's single fetch engine round-robins over the submission
	// queues, occupying it for Fetch+Arbitration per command, so concurrent
	// submissions queue behind each other before execution even starts.
	// Zero (the default) models infinite fetch bandwidth — every fetch
	// completes Doorbell+Fetch after submission regardless of load, which
	// is the closed-loop model every existing experiment was calibrated on.
	Arbitration sim.Time
}

// DefaultCosts reflects measured NVMe small-command overheads.
func DefaultCosts() Costs {
	return Costs{
		Doorbell:   100 * sim.Nanosecond,
		Fetch:      400 * sim.Nanosecond,
		Completion: 1 * sim.Microsecond,
	}
}

// Total is the fixed per-command transport cost.
func (c Costs) Total() sim.Time {
	return c.Doorbell + c.Fetch + c.Arbitration + c.Completion
}

// Device is the controller side: it executes one fetched command and
// returns its completion. now is the time the device begins executing.
type Device interface {
	Execute(now sim.Time, cmd *Command) Completion
}

// queuePair is one SQ/CQ pair of a multi-queue transport.
type queuePair struct {
	sq *SQ
	cq *CQ
}

// inflight is the per-command state of one asynchronously submitted
// command. Instances are pooled on a free list with their event callbacks
// pre-bound, so the steady-state submit path allocates nothing.
type inflight struct {
	m        *MultiQueue
	pair     *queuePair
	submitAt sim.Time
	fetchEnd sim.Time
	cmd      Command // the fetched entry; Execute gets a pointer to it
	comp     Completion
	complete func(Completion)

	fetchFn func(sim.Time)
	reapFn  func(sim.Time)
	next    *inflight
}

// ResRing is the blame label for completion-side ring time, matching the
// "nvme.ring" resource timeline name. Fetch-side time is blamed on the
// specific SQ pair ("nvme.sq<N>") instead, so arbitration stalls point at
// the queue that suffered them.
const ResRing = "nvme.ring"

// MultiQueue is the asynchronous host↔device transport: N SQ/CQ pairs of
// configurable depth over one device, driven by a discrete-event engine.
// Submit pushes the command on the next pair round-robin and returns
// immediately (ErrQueueFull when that pair's ring is at capacity — the
// transport's backpressure signal); the fetch, execution, and completion
// happen as events, and the caller's callback fires at the completion's
// virtual timestamp. With Costs.Arbitration > 0 a shared fetch-engine
// resource serializes SQ fetches, so deep queues see real arbitration
// delay before execution even begins.
//
// Event callbacks use the timestamps captured at scheduling, so results
// are independent of how the engine interleaves unrelated chains; ordering
// at equal times follows submission order through the engine's (time, seq)
// tiebreak. Like every sim type, a MultiQueue belongs to one
// single-threaded simulated system.
type MultiQueue struct {
	pairs []queuePair
	dev   Device
	costs Costs
	eng   *sim.Engine

	fetchArb sim.Resource // shared fetch engine (used when Arbitration > 0)

	nextID    uint16
	rr        int // round-robin pair cursor
	submitted uint64
	completed uint64
	inFlight  int
	err       error

	tr       telemetry.Tracer
	sa       *telemetry.StageAccount
	ringRes  *resource.Timeline // ring-protocol occupancy (nil = off)
	sqLabels []string           // interned per-pair blame labels ("nvme.sq0", ...)

	free *inflight
}

// NewMultiQueue builds pairs SQ/CQ pairs of the given depth over dev,
// scheduling on eng.
func NewMultiQueue(dev Device, pairs, depth int, costs Costs, eng *sim.Engine) *MultiQueue {
	if pairs < 1 {
		pairs = 1
	}
	m := &MultiQueue{
		pairs: make([]queuePair, pairs),
		dev:   dev,
		costs: costs,
		eng:   eng,
		tr:    telemetry.Nop(),
	}
	m.sqLabels = make([]string, pairs)
	for i := range m.pairs {
		m.pairs[i] = queuePair{sq: NewSQ(depth), cq: NewCQ(depth)}
		m.sqLabels[i] = fmt.Sprintf("nvme.sq%d", i)
	}
	return m
}

// Pairs reports the number of SQ/CQ pairs.
func (m *MultiQueue) Pairs() int { return len(m.pairs) }

// Depth reports the usable per-pair queue depth.
func (m *MultiQueue) Depth() int { return m.pairs[0].sq.Cap() }

// InFlight reports commands submitted but not yet completed.
func (m *MultiQueue) InFlight() int { return m.inFlight }

// SetTracer installs a tracer; each submitted command becomes one span on
// the nvme track, covering doorbell to completion reap.
func (m *MultiQueue) SetTracer(tr telemetry.Tracer) { m.tr = telemetry.OrNop(tr) }

// SetStages installs the per-request stage account; the transport
// attributes the ring-protocol costs (doorbell, fetch, completion).
func (m *MultiQueue) SetStages(sa *telemetry.StageAccount) { m.sa = sa }

// SetRingTimeline records the ring protocol's occupancy windows on a
// resource timeline (nil turns recording off).
func (m *MultiQueue) SetRingTimeline(tl *resource.Timeline) { m.ringRes = tl }

// Stats reports commands submitted and completed.
func (m *MultiQueue) Stats() (submitted, completed uint64) {
	return m.submitted, m.completed
}

// Err reports the first ring-protocol failure observed on the event path
// (nil in any healthy run; a non-nil value means a callback could not
// surface an error to its submitter).
func (m *MultiQueue) Err() error { return m.err }

func (m *MultiQueue) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

func (m *MultiQueue) get() *inflight {
	ic := m.free
	if ic == nil {
		ic = &inflight{m: m}
		ic.fetchFn = func(sim.Time) { ic.m.fetch(ic) }
		ic.reapFn = func(sim.Time) { ic.m.reap(ic) }
	} else {
		m.free = ic.next
		ic.next = nil
	}
	return ic
}

// put recycles ic. Clearing cmd drops the references to the caller's Data
// and FineLBAs, so a pooled entry never pins a finished command's buffers.
func (m *MultiQueue) put(ic *inflight) {
	ic.pair = nil
	ic.complete = nil
	ic.cmd = Command{}
	ic.comp = Completion{}
	ic.next = m.free
	m.free = ic
}

// Submit enqueues one command on the next pair round-robin. complete fires
// when the completion is reaped, carrying the completion with its virtual
// Done timestamp; commands submitted while that pair's SQ is at capacity
// are rejected with ErrQueueFull (the caller's backpressure signal).
// Events run when the engine does — callers drive eng.Run or Step.
func (m *MultiQueue) Submit(now sim.Time, cmd Command, complete func(Completion)) error {
	pairIdx := m.rr
	pair := &m.pairs[pairIdx]
	cmd.ID = m.nextID
	if err := pair.sq.Push(cmd); err != nil {
		return err
	}
	m.nextID++
	m.rr = (m.rr + 1) % len(m.pairs)
	m.submitted++
	m.inFlight++

	// Doorbell, then the SQ fetch. With arbitration on, the shared fetch
	// engine serializes fetches (FIFO in submit order); otherwise the fetch
	// completes a fixed Doorbell+Fetch after submission, load-independent.
	var fetchEnd sim.Time
	if m.costs.Arbitration > 0 {
		_, fetchEnd = m.fetchArb.Acquire(now+m.costs.Doorbell, m.costs.Fetch+m.costs.Arbitration)
	} else {
		fetchEnd = now + m.costs.Doorbell + m.costs.Fetch
	}
	m.sa.MarkRes(telemetry.StageRing, fetchEnd, m.sqLabels[pairIdx])
	m.ringRes.Add(now, fetchEnd)

	ic := m.get()
	ic.pair = pair
	ic.submitAt = now
	ic.fetchEnd = fetchEnd
	ic.complete = complete
	m.eng.At(fetchEnd, ic.fetchFn)
	return nil
}

// fetch is the device-side SQ fetch event: pop the entry, execute it, and
// schedule the completion.
func (m *MultiQueue) fetch(ic *inflight) {
	var err error
	if ic.cmd, err = ic.pair.sq.Pop(); err != nil {
		m.fail(fmt.Errorf("nvme: device fetch: %w", err))
		m.inFlight--
		m.put(ic)
		return
	}
	comp := m.dev.Execute(ic.fetchEnd, &ic.cmd)
	comp.ID = ic.cmd.ID
	execDone := comp.Done
	comp.Done += m.costs.Completion
	m.sa.MarkRes(telemetry.StageRing, comp.Done, ResRing)
	m.ringRes.Add(execDone, comp.Done)
	ic.comp = comp
	m.eng.At(comp.Done, ic.reapFn)
}

// reap is the host-side completion event: post to the CQ, reap it, and
// fire the submitter's callback.
func (m *MultiQueue) reap(ic *inflight) {
	if err := ic.pair.cq.Push(ic.comp); err != nil {
		m.fail(fmt.Errorf("nvme: completion post: %w", err))
		m.inFlight--
		m.put(ic)
		return
	}
	reaped, err := ic.pair.cq.Pop()
	if err != nil {
		m.fail(fmt.Errorf("nvme: completion reap: %w", err))
		m.inFlight--
		m.put(ic)
		return
	}
	m.completed++
	m.inFlight--
	if m.tr.Enabled() {
		m.tr.Span(telemetry.TrackNVMe, ic.cmd.Op.String(), ic.submitAt, reaped.Done)
	}
	cb := ic.complete
	m.put(ic)
	cb(reaped)
}

// Driver is the synchronous host-side view of the transport that the
// blocking POSIX stack submits through: a MultiQueue over a private event
// engine that Submit drains before returning, so one command runs to
// completion in virtual time per call. Contended state (the fetch
// arbiter, and everything inside the device) persists across calls, so
// callers that submit at overlapping virtual times still see queueing —
// that is how the open-loop harness models outstanding requests over a
// synchronous stack.
//
// The driver keeps one completion slot and a completion callback bound at
// construction, so Submit allocates nothing. Submit is not re-entrant: the
// device must not submit through the driver it is executing for.
type Driver struct {
	mq  *MultiQueue
	eng *sim.Engine

	out    Completion
	done   bool
	onDone func(Completion)
}

// NewDriver builds a single queue pair of the given depth over a device.
func NewDriver(dev Device, queueDepth int, costs Costs) *Driver {
	return NewDriverQueues(dev, 1, queueDepth, costs)
}

// NewDriverQueues builds a driver over pairs SQ/CQ pairs of the given
// depth; submissions round-robin across the pairs.
func NewDriverQueues(dev Device, pairs, queueDepth int, costs Costs) *Driver {
	eng := sim.NewEngine()
	d := &Driver{mq: NewMultiQueue(dev, pairs, queueDepth, costs, eng), eng: eng}
	d.onDone = func(c Completion) { d.out, d.done = c, true }
	return d
}

// Queues exposes the underlying multi-queue transport.
func (d *Driver) Queues() *MultiQueue { return d.mq }

// SetTracer installs a tracer; each submitted command becomes one span on
// the nvme track, covering doorbell to completion reap.
func (d *Driver) SetTracer(tr telemetry.Tracer) { d.mq.SetTracer(tr) }

// SetStages installs the per-request stage account; the driver attributes
// the ring-protocol costs (doorbell, fetch, completion).
func (d *Driver) SetStages(sa *telemetry.StageAccount) { d.mq.SetStages(sa) }

// SetRingTimeline records the ring protocol's occupancy windows on a
// resource timeline (nil turns recording off).
func (d *Driver) SetRingTimeline(tl *resource.Timeline) { d.mq.SetRingTimeline(tl) }

// Stats reports commands submitted and completed.
func (d *Driver) Stats() (submitted, completed uint64) { return d.mq.Stats() }

// Submit runs one command to completion in virtual time.
func (d *Driver) Submit(now sim.Time, cmd Command) (Completion, error) {
	d.out, d.done = Completion{}, false
	if err := d.mq.Submit(now, cmd, d.onDone); err != nil {
		return Completion{}, err
	}
	d.eng.Run()
	if err := d.mq.Err(); err != nil {
		return Completion{}, err
	}
	if !d.done {
		return Completion{}, errors.New("nvme: command never completed")
	}
	return d.out, nil
}
