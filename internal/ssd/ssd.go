// Package ssd models the SSD controller: it executes NVMe commands against
// the FTL/NAND stack, owns the controller-DRAM read buffer, implements the
// paper's Fine-Grained Read Engine (§3.1.2, Figure 4), and exposes the
// Controller Memory Buffer plus MMIO/DMA transfer mechanics the 2B-SSD
// baselines are built from.
//
// All PCIe crossings are accounted as host-interface traffic; device-
// internal movement (NAND -> read buffer -> CMB) is not, matching how the
// paper's I/O-traffic tables count only demanded-vs-transferred host bytes.
package ssd

import (
	"errors"
	"fmt"

	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/hmb"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/resource"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// The host interconnect: PCIe Gen3 x4, the paper's prototype link.
const (
	DMABandwidthMBps = 3200                 // effective DMA throughput
	DMASetup         = 300 * sim.Nanosecond // descriptor setup per DMA transfer
	MMIOTransaction  = 250 * sim.Nanosecond // one non-posted MMIO read round trip
	MMIOPayload      = 8                    // bytes per MMIO transaction (8 on x86)
)

// The controller's fixed resources and firmware costs.
const (
	// ReadBufferPages bounds how many NAND pages one command can hold in
	// controller DRAM at once; larger multi-page commands process in
	// batches.
	ReadBufferPages = 64
	// FirmwareBlockOverhead is per-command FTL/firmware processing for
	// block commands; FirmwareFineOverhead for the leaner fine-read path.
	FirmwareBlockOverhead = 3 * sim.Microsecond
	FirmwareFineOverhead  = 1 * sim.Microsecond
	// ExtractOverhead is the engine's per-range scatter cost (Figure 4
	// step 3c).
	ExtractOverhead = 300 * sim.Nanosecond
	// CMBBytes sizes the Controller Memory Buffer used by the 2B-SSD
	// baselines.
	CMBBytes = 4 << 20
	// ECCRetrySteps bounds the read-retry ladder the ECC engine walks when
	// an injected raw-bit-error burst exceeds the default correction
	// strength; each step re-senses the page (full tR + transfer). A page
	// still failing past the ladder is uncorrectable.
	ECCRetrySteps = 4
)

// dmaTime is the link occupancy to move n bytes by DMA.
func dmaTime(n int) sim.Time {
	return DMASetup + sim.Time(float64(n)/(DMABandwidthMBps*(1<<20))*float64(sim.Second))
}

// mmioTime is the cost to read n bytes through non-posted MMIO
// transactions: each moves at most MMIOPayload bytes and must wait for its
// completion before the next issues (why 2B-SSD MMIO degrades linearly with
// request size in the paper's Figure 8).
func mmioTime(n int) sim.Time {
	txns := (n + MMIOPayload - 1) / MMIOPayload
	return sim.Time(txns) * MMIOTransaction
}

// Config assembles a device.
type Config struct {
	NAND nand.Config
	FTL  ftl.Config

	// WriteBufferPages enables the controller-DRAM write buffer: writes
	// acknowledge after the host DMA and destage to NAND in the background;
	// OpFlush drains synchronously. 0 disables (writes program NAND
	// inline), the calibrated default.
	WriteBufferPages int

	// ECCUncorrectableFrac is the fraction of the injected-severity
	// spectrum that exhausts the whole ladder and still fails.
	ECCUncorrectableFrac float64

	// LinkArbitration models the PCIe link as a serially occupied
	// resource: DMA bursts and MMIO transactions queue FIFO behind
	// in-flight transfers, so overlapping commands see real link
	// contention. Off (the default), bursts overlap freely — the additive
	// model every closed-loop experiment was calibrated on.
	LinkArbitration bool
}

// DefaultConfig mirrors the paper's platform.
func DefaultConfig() Config {
	return Config{
		NAND:                 nand.DefaultConfig(),
		FTL:                  ftl.DefaultConfig(),
		ECCUncorrectableFrac: 0.02,
	}
}

// Stats counts controller activity.
type Stats struct {
	BlockReadCmds uint64
	FineReadCmds  uint64
	WriteCmds     uint64
	PagesDestaged uint64 // write-buffer pages flushed to NAND
	BytesToHost   uint64 // PCIe device->host
	BytesFromHost uint64 // PCIe host->device
	RangesExtract uint64 // fine ranges scattered by the read engine
}

// Controller is the device. It implements nvme.Device.
type Controller struct {
	cfg Config
	fl  *ftl.FTL
	arr *nand.Array

	hmbRegion *hmb.Region // nil until EnableHMB

	cmb      []byte // nil until the first LoadToCMB
	cmbSlots int
	cmbNext  int
	cmbPages []uint64 // lba+1 resident in each slot, 0 if empty (for assertions)

	wbuf     []wbEntry
	wbufIdx  map[uint64]int
	wbufBase int // entries destaged so far; see bufLookup

	readBuf []byte // controller-DRAM staging for fine reads (ReadBufferPages pages)

	// Fault injection state: nil injector = Nop, and the counters stay at
	// zero. The counters are atomic so telemetry probes can sample them;
	// they live here (not in Stats) because Stats is copied by value.
	inj            *fault.Injector
	fltECCRetry    telemetry.Counter
	fltUncorrect   telemetry.Counter
	fltRingCorrupt telemetry.Counter
	fltDMACorrupt  telemetry.Counter
	fltProgRetry   telemetry.Counter

	stats  Stats
	tr     telemetry.Tracer
	sa     *telemetry.StageAccount
	dmaRes *resource.Timeline // PCIe link occupancy (nil = off)
	link   sim.Resource       // contended link state (LinkArbitration)
}

// linkSpan schedules a link transfer of duration dur requested at time at,
// returning its [start, end] window. With LinkArbitration the transfer
// queues behind in-flight link work; otherwise it starts immediately.
func (c *Controller) linkSpan(at, dur sim.Time) (start, end sim.Time) {
	if c.cfg.LinkArbitration {
		return c.link.Acquire(at, dur)
	}
	return at, at + dur
}

// New builds the full device stack: NAND array, FTL, controller.
func New(cfg Config) (*Controller, error) {
	if CMBBytes < cfg.NAND.PageSize {
		return nil, fmt.Errorf("ssd: CMB %d smaller than one page", CMBBytes)
	}
	arr, err := nand.New(cfg.NAND)
	if err != nil {
		return nil, err
	}
	return NewWithArray(cfg, arr)
}

// NewWithArray builds a controller over an existing NAND array (tests use
// this to pre-mark bad blocks).
func NewWithArray(cfg Config, arr *nand.Array) (*Controller, error) {
	fl, err := ftl.New(arr, cfg.FTL)
	if err != nil {
		return nil, err
	}
	if cfg.WriteBufferPages < 0 {
		return nil, errors.New("ssd: negative write buffer")
	}
	c := &Controller{
		cfg:      cfg,
		fl:       fl,
		arr:      arr,
		cmbSlots: CMBBytes / cfg.NAND.PageSize,
		wbufIdx:  make(map[uint64]int),
		readBuf:  make([]byte, ReadBufferPages*cfg.NAND.PageSize),
		tr:       telemetry.Nop(),
	}
	return c, nil
}

// FTL exposes the translation layer (the filesystem preload path and tests
// need it).
func (c *Controller) FTL() *ftl.FTL { return c.fl }

// Array exposes the NAND array.
func (c *Controller) Array() *nand.Array { return c.arr }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Blame labels for the controller's own resources. ResDMALink matches the
// "pcie.dma" resource timeline; ResFirmware names the controller CPU,
// which has no occupancy timeline (firmware time is per-command, not a
// shared contended unit in this model).
var (
	ResDMALink  = telemetry.Intern("pcie.dma")
	ResFirmware = telemetry.Intern("cpu.fw")
)

// SetTracer installs a tracer on the controller and cascades it down to the
// FTL and NAND array, so one call instruments the whole device.
func (c *Controller) SetTracer(tr telemetry.Tracer) {
	c.tr = telemetry.OrNop(tr)
	c.fl.SetTracer(c.tr)
}

// SetStages installs the per-request stage account and cascades it to the
// FTL, which attributes media time (NAND sense/transfer, programs, GC).
// The controller itself attributes firmware, DMA, and ECC-retry time.
func (c *Controller) SetStages(sa *telemetry.StageAccount) {
	c.sa = sa
	c.fl.SetStages(sa)
}

// SetResources registers the device's occupied resources with a tracker:
// the PCIe link ("pcie.dma", covering DMA bursts and MMIO transactions),
// then the NAND channels and dies.
func (c *Controller) SetResources(rt *resource.Tracker) {
	if rt == nil {
		c.dmaRes = nil
		c.arr.SetResources(nil)
		return
	}
	c.dmaRes = rt.Register("pcie.dma")
	c.arr.SetResources(rt)
}

// PageSize reports the device's page size.
func (c *Controller) PageSize() int { return c.cfg.NAND.PageSize }

// LogicalPages reports exported capacity in pages.
func (c *Controller) LogicalPages() uint64 { return c.fl.LogicalPages() }

// EnableHMB attaches the host memory buffer region, modeling the NVMe
// Set-Features handshake at initialization (§3.1.1): the standing DMA
// mapping is established once, so per-access fine reads pay no mapping
// cost afterwards.
func (c *Controller) EnableHMB(r *hmb.Region) {
	c.hmbRegion = r
}

// Execute implements nvme.Device.
func (c *Controller) Execute(now sim.Time, cmd *nvme.Command) nvme.Completion {
	switch cmd.Op {
	case nvme.OpRead:
		return c.execBlockRead(now, cmd)
	case nvme.OpWrite:
		if c.cfg.WriteBufferPages > 0 {
			return c.execBufferedWrite(now, cmd)
		}
		return c.execWrite(now, cmd)
	case nvme.OpFlush:
		return c.execFlush(now)
	case nvme.OpFineRead:
		return c.execFineRead(now, cmd)
	default:
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
}

func statusFor(err error) nvme.Status {
	switch {
	case errors.Is(err, ftl.ErrBadLBA):
		return nvme.StatusLBAOutOfRange
	case errors.Is(err, ftl.ErrUnmapped):
		return nvme.StatusUnmapped
	case errors.Is(err, nvme.ErrUncorrectable):
		return nvme.StatusMediaError
	default:
		return nvme.StatusInternal
	}
}

// execBlockRead serves a conventional multi-page read: all pages issue to
// the NAND array at once (channel parallelism emerges from the array's
// resource model), then the aggregate DMAs to the host buffer. Pages in
// the command's discard mask cost the same but leave Data untouched.
func (c *Controller) execBlockRead(now sim.Time, cmd *nvme.Command) nvme.Completion {
	ps := c.cfg.NAND.PageSize
	if cmd.Pages <= 0 || len(cmd.Data) < cmd.Pages*ps || (cmd.Discard != 0 && cmd.Pages > nvme.DiscardPages) {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.BlockReadCmds++
	start := now + FirmwareBlockOverhead
	c.sa.MarkRes(telemetry.StageFirmware, start, ResFirmware)

	var moved uint64
	maxDone := start
	for batch := 0; batch < cmd.Pages; batch += ReadBufferPages {
		batchEnd := batch + ReadBufferPages
		if batchEnd > cmd.Pages {
			batchEnd = cmd.Pages
		}
		issueAt := maxDone
		if batch == 0 {
			issueAt = start
		}
		for i := batch; i < batchEnd; i++ {
			dst := cmd.Data[i*ps : (i+1)*ps]
			if cmd.Discard&(1<<uint(i)) != 0 {
				dst = dst[:0]
			}
			done, err := c.readLBAInto(issueAt, cmd.LBA+uint64(i), 0, dst)
			if err != nil {
				// A failed read still waits for the racing loads it already
				// issued: the command completes no earlier than any of them.
				if done < maxDone {
					done = maxDone
				}
				return nvme.Completion{Status: statusFor(err), Done: done}
			}
			if done > maxDone {
				maxDone = done
			}
		}
	}
	moved = uint64(cmd.Pages * ps)
	dmaStart, done := c.linkSpan(maxDone, dmaTime(int(moved)))
	c.sa.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	c.stats.BytesToHost += moved
	if c.tr.Enabled() {
		c.tr.Span(telemetry.TrackSSD, "read.firmware", now, start)
		c.tr.Span(telemetry.TrackSSD, "read.nand", start, maxDone)
		c.tr.Span(telemetry.TrackSSD, "read.dma", dmaStart, done)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: done, BytesMoved: moved}
}

// execWrite persists page-aligned data: DMA from host, then program via the
// FTL (which may trigger GC, visible in the completion time). Every page's
// program issues once the DMA lands, so pages the FTL stripes over
// different dies program together; the command completes with the latest.
func (c *Controller) execWrite(now sim.Time, cmd *nvme.Command) nvme.Completion {
	ps := c.cfg.NAND.PageSize
	if cmd.Pages <= 0 || len(cmd.Data) != cmd.Pages*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.WriteCmds++
	fwDone := now + FirmwareBlockOverhead
	dmaStart, hostDone := c.linkSpan(fwDone, dmaTime(len(cmd.Data)))
	c.sa.MarkRes(telemetry.StageFirmware, fwDone, ResFirmware)
	c.sa.MarkRes(telemetry.StageDMA, hostDone, ResDMALink)
	c.dmaRes.Add(dmaStart, hostDone)
	t := hostDone
	c.stats.BytesFromHost += uint64(len(cmd.Data))
	for i := 0; i < cmd.Pages; i++ {
		done, err := c.programLBA(hostDone, cmd.LBA+uint64(i), cmd.Data[i*ps:(i+1)*ps])
		if err != nil {
			// A failed program still waits for the programs already issued.
			return nvme.Completion{Status: statusFor(err), Done: t}
		}
		t = max(t, done)
	}
	if c.tr.Enabled() {
		c.tr.Span(telemetry.TrackSSD, "write.dma", now, hostDone)
		c.tr.Span(telemetry.TrackSSD, "write.program", hostDone, t)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: t, BytesMoved: uint64(len(cmd.Data))}
}

// Trim unmaps lba without consuming virtual time; the filesystem calls it
// for every page it frees. A copy of the page staged in the write buffer is
// dropped first, so neither a later read nor a destage can serve or program
// the freed bytes. Trimming an unmapped LBA is a no-op; an LBA beyond the
// exported capacity fails with ftl.ErrBadLBA.
func (c *Controller) Trim(lba uint64) error {
	c.bufDrop(lba)
	return c.fl.Trim(ftl.LBA(lba))
}

// Written reports whether lba holds data: a mapped page or a copy staged in
// the write buffer. An LBA never written since creation or trim is a hole,
// an unwritten extent: the host reads it as zeros without a command.
func (c *Controller) Written(lba uint64) bool {
	if len(c.wbuf) > 0 {
		if _, ok := c.wbufIdx[lba]; ok {
			return true
		}
	}
	return c.fl.IsMapped(ftl.LBA(lba))
}

// execFineRead is the Fine-Grained Read Engine (Figure 4). One command
// serves one reconstructed application read: (1) load the referenced NAND
// pages into the read buffer, (2) consume the pending Info Area record for
// the destination, (3) extract the demanded byte range across the loaded
// pages and DMA only those bytes into the HMB, then bump the ring head.
func (c *Controller) execFineRead(now sim.Time, cmd *nvme.Command) nvme.Completion {
	if c.hmbRegion == nil {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	if len(cmd.FineLBAs) == 0 || len(cmd.FineLBAs) > ReadBufferPages {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	rec, err := c.hmbRegion.Info().Consume()
	if err != nil {
		if errors.Is(err, hmb.ErrCorruptRecord) {
			// The record is consumed (the ring must not wedge) but its
			// fields cannot be trusted; the host re-serves via block I/O.
			c.fltRingCorrupt.Inc()
			rejectAt := now + FirmwareFineOverhead
			c.sa.MarkRes(telemetry.StageFirmware, rejectAt, ResFirmware)
			return nvme.Completion{Status: nvme.StatusCorruptRing, Done: rejectAt}
		}
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	if rec.LBA != cmd.FineLBAs[0] {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	ps := c.cfg.NAND.PageSize
	if rec.ByteOff < 0 || rec.ByteLen <= 0 || rec.ByteOff >= ps ||
		rec.ByteOff+rec.ByteLen > len(cmd.FineLBAs)*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.FineReadCmds++
	start := now + FirmwareFineOverhead
	c.sa.MarkRes(telemetry.StageFirmware, start, ResFirmware)

	// Phase 1: load pages into the controller read buffer; they issue
	// together and race across channels. Pages land contiguously, so the
	// extract phase is one range copy. Each page costs a full load, but
	// only its share of the demanded range is written.
	maxDone := start
	end := rec.ByteOff + rec.ByteLen
	for i, lba := range cmd.FineLBAs {
		lo := max(rec.ByteOff, i*ps)
		hi := max(lo, min(end, (i+1)*ps)) // a page past the range loads for timing alone
		done, err := c.readLBAInto(start, lba, lo-i*ps, c.readBuf[lo:hi])
		if err != nil {
			// As in the block path: the command outlives its racing loads.
			if done < maxDone {
				done = maxDone
			}
			return nvme.Completion{Status: statusFor(err), Done: done}
		}
		if done > maxDone {
			maxDone = done
		}
	}

	// Phase 3: extract the demanded range (may cross page boundaries) and
	// scatter it to the HMB destination. Under fault injection the device
	// checksums the payload before the DMA; the host recomputes it over
	// the landed bytes, so an in-flight bit flip is detected, not served.
	payload := c.readBuf[rec.ByteOff : rec.ByteOff+rec.ByteLen]
	var paySum uint32
	if c.inj.Enabled() {
		paySum = fault.Sum32(payload)
	}
	if err := c.hmbRegion.WriteAt(rec.Dest, payload); err != nil {
		return nvme.Completion{Status: nvme.StatusInternal, Done: maxDone}
	}
	if out := c.inj.Check(fault.SiteNVMeDMA, rec.LBA); out.Hit {
		c.fltDMACorrupt.Inc()
		c.corruptHMB(rec.Dest, rec.ByteLen, out.Sev)
	}
	dmaStart, done := c.linkSpan(maxDone+ExtractOverhead, dmaTime(rec.ByteLen))
	c.sa.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	c.stats.RangesExtract++
	c.stats.BytesToHost += uint64(rec.ByteLen)
	if c.tr.Enabled() {
		c.tr.Span(telemetry.TrackSSD, "fine.firmware", now, start)
		c.tr.Span(telemetry.TrackSSD, "fine.load", start, maxDone)
		c.tr.Span(telemetry.TrackSSD, "fine.extract", maxDone, done)
	}
	return nvme.Completion{
		Status:     nvme.StatusOK,
		Done:       done,
		BytesMoved: uint64(rec.ByteLen),
		PayloadSum: paySum,
	}
}

// corruptHMB flips one bit of a landed DMA payload in the HMB region,
// modeling in-flight corruption the link CRC missed.
func (c *Controller) corruptHMB(dest, n int, sev float64) {
	bit := int(sev * float64(n*8))
	if bit >= n*8 {
		bit = n*8 - 1
	}
	// The payload just landed at [dest, dest+n), so the byte is in range.
	_ = c.hmbRegion.FlipBit(dest+bit/8, uint(bit%8))
}

// --- CMB mechanics for the 2B-SSD baselines -------------------------------

// LoadToCMB brings the page backing lba into a CMB slot (2B-SSD's first
// step: "SSD controller reads pages from flash chips to the CMB"). Slot
// reuse rotates; there is no caching, faithfully to the baseline.
func (c *Controller) LoadToCMB(now sim.Time, lba uint64) (slot int, done sim.Time, err error) {
	if c.cmb == nil { // only the 2B-SSD engines ever hold its 4 MiB
		c.cmb = make([]byte, CMBBytes)
		c.cmbPages = make([]uint64, c.cmbSlots)
	}
	ps := c.cfg.NAND.PageSize
	slot = c.cmbNext
	dst := c.cmb[slot*ps : (slot+1)*ps]
	if done, err = c.readLBAInto(now, lba, 0, dst); err != nil {
		return 0, done, err
	}
	c.cmbNext = (c.cmbNext + 1) % c.cmbSlots
	c.cmbPages[slot] = lba + 1
	return slot, done, nil
}

// MMIORead transfers len(buf) bytes from a CMB slot to the host through
// non-posted MMIO transactions. Returns the completion time.
func (c *Controller) MMIORead(now sim.Time, slot, off int, buf []byte) (sim.Time, error) {
	if err := c.checkCMBRange(slot, off, len(buf)); err != nil {
		return now, err
	}
	base := slot * c.cfg.NAND.PageSize
	copy(buf, c.cmb[base+off:])
	c.stats.BytesToHost += uint64(len(buf))
	mmioStart, done := c.linkSpan(now, mmioTime(len(buf)))
	c.sa.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(mmioStart, done)
	return done, nil
}

// DMAReadFromCMB transfers len(buf) bytes from a CMB slot to the host by
// DMA. The caller (the 2B-SSD DMA baseline) adds its per-access mapping
// cost on top; this method charges only the link.
func (c *Controller) DMAReadFromCMB(now sim.Time, slot, off int, buf []byte) (sim.Time, error) {
	if err := c.checkCMBRange(slot, off, len(buf)); err != nil {
		return now, err
	}
	base := slot * c.cfg.NAND.PageSize
	copy(buf, c.cmb[base+off:])
	c.stats.BytesToHost += uint64(len(buf))
	dmaStart, done := c.linkSpan(now, dmaTime(len(buf)))
	c.sa.MarkRes(telemetry.StageDMA, done, ResDMALink)
	c.dmaRes.Add(dmaStart, done)
	return done, nil
}

func (c *Controller) checkCMBRange(slot, off, n int) error {
	ps := c.cfg.NAND.PageSize
	if slot < 0 || slot >= c.cmbSlots {
		return fmt.Errorf("ssd: CMB slot %d out of range", slot)
	}
	if off < 0 || n <= 0 || off+n > ps {
		return fmt.Errorf("ssd: CMB range [%d,%d) outside page", off, off+n)
	}
	if c.cmb == nil || c.cmbPages[slot] == 0 {
		return errors.New("ssd: CMB slot not loaded")
	}
	return nil
}

// PeekLBA reads len(buf) bytes at byte offset off within the page backing
// lba, without consuming virtual time or counting traffic. It is the
// simulator's content oracle: the host uses it to reconstruct clean
// page-cache pages (which are metadata-only to keep multi-gigabyte working
// sets cheap) and tests use it to verify end-to-end data paths.
func (c *Controller) PeekLBA(lba uint64, off int, buf []byte) error {
	if data, ok := c.bufLookup(lba); ok {
		if off < 0 || off+len(buf) > len(data) {
			return nand.ErrOutOfRange
		}
		copy(buf, data[off:])
		return nil
	}
	ppa, err := c.fl.Translate(ftl.LBA(lba))
	if err != nil {
		return err
	}
	return c.arr.PeekRange(ppa, off, buf)
}
