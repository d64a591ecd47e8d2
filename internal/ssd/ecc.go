package ssd

// The controller's reliability machinery: every NAND page load funnels
// through readLBAInto, where the fault injector may flip raw bits in the
// sensed page. The ECC engine then walks a tiered read-retry ladder —
// each step re-senses the page with shifted read-reference voltages,
// costing a full tR plus channel transfer — until the page decodes or the
// retry budget is exhausted, at which point the read surfaces
// nvme.ErrUncorrectable (StatusMediaError on the wire). Writes funnel
// through programLBA, where an injected program/verify failure makes the
// firmware re-issue the program; the FTL naturally remaps it to a fresh
// physical page, which is exactly what real firmware does on program
// failure.

import (
	"pipette/internal/fault"
	"pipette/internal/ftl"
	"pipette/internal/nand"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// FaultStats counts the controller's fault-recovery activity. All zeros
// when no injector is armed.
type FaultStats struct {
	ECCRetries      uint64 // read-retry ladder steps charged
	Uncorrectable   uint64 // reads that exhausted the retry budget
	RingCorruptions uint64 // Info-Area records rejected by checksum
	DMACorruptions  uint64 // fine-read payloads corrupted in flight
	ProgramRetries  uint64 // programs re-issued after a verify failure
}

// SetInjector arms fault injection on the device: raw bit errors on page
// reads (the rber* rule resolves against the media's datasheet RBER and
// the bits sensed per page), program/verify failures on writes, and DMA
// payload corruption on fine reads.
func (c *Controller) SetInjector(inj *fault.Injector) {
	c.inj = inj
	inj.ResolveRBER(fault.SiteNANDRead, nand.RBER, c.cfg.NAND.PageSize*8)
}

// Faults snapshots the recovery counters.
func (c *Controller) Faults() FaultStats {
	return FaultStats{
		ECCRetries:      c.fltECCRetry.Load(),
		Uncorrectable:   c.fltUncorrect.Load(),
		RingCorruptions: c.fltRingCorrupt.Load(),
		DMACorruptions:  c.fltDMACorrupt.Load(),
		ProgramRetries:  c.fltProgRetry.Load(),
	}
}

// readLBAInto is the single page-load path shared by block reads, fine
// reads, and CMB loads: write-buffer coherence first, then NAND via the
// FTL, then ECC recovery when the injector flips bits in the sensed page.
// Every load costs a whole page of media time, but only the page bytes
// [off, off+len(dst)) land in dst; an empty dst loads for timing alone.
// On an uncorrectable page the returned error wraps nvme.ErrUncorrectable
// and dst must not be trusted.
func (c *Controller) readLBAInto(now sim.Time, lba uint64, off int, dst []byte) (done sim.Time, err error) {
	if buffered, ok := c.bufLookup(lba); ok {
		// Write-buffer hit: served from controller DRAM, no media involved.
		copy(dst, buffered[off:])
		return now, nil
	}
	done, err = c.fl.ReadRangeInto(now, ftl.LBA(lba), off, dst)
	if err != nil {
		return done, err
	}
	if out := c.inj.Check(fault.SiteNANDRead, lba); out.Hit {
		// Everything attributed from here on is ladder work: capture the
		// attribution frontier so the re-senses the FTL marks as NAND time
		// get moved to the retry stage, keeping conservation exact.
		frontier := c.sa.Cursor()
		done, err = c.eccRecover(done, lba, off, dst, out.Sev)
		c.sa.Reattribute(frontier, telemetry.StageRetry)
		c.sa.Mark(telemetry.StageRetry, done)
	}
	return done, err
}

// eccRecover walks the tiered read-retry ladder for a page whose first
// sense had raw bit errors past the default correction strength. The
// severity draw decides the outcome: the bottom ECCUncorrectableFrac of
// the spectrum burns the whole ladder and still fails; the rest recovers
// after a severity-proportional number of steps. Every step re-issues the
// page read through the FTL, so it charges a full tR plus channel
// transfer on the NAND resource timelines — fault recovery is slower, not
// wrong. Each step re-senses the same byte range as the first sense.
func (c *Controller) eccRecover(now sim.Time, lba uint64, off int, dst []byte, sev float64) (sim.Time, error) {
	uncorrectable := sev < c.cfg.ECCUncorrectableFrac
	n := ECCRetrySteps
	if !uncorrectable {
		frac := (sev - c.cfg.ECCUncorrectableFrac) / (1 - c.cfg.ECCUncorrectableFrac)
		n = 1 + int(frac*ECCRetrySteps)
		if n > ECCRetrySteps {
			n = ECCRetrySteps
		}
	}
	t := now
	for i := 0; i < n; i++ {
		var err error
		if t, err = c.fl.ReadRangeInto(t, ftl.LBA(lba), off, dst); err != nil {
			return t, err
		}
		c.fltECCRetry.Inc()
	}
	if uncorrectable {
		c.fltUncorrect.Inc()
		return t, nvme.ErrUncorrectable
	}
	return t, nil
}

// programLBA is the single page-program path shared by inline writes and
// write-buffer destage. An injected program/verify failure re-issues the
// program from its completion time; the FTL allocates a fresh physical
// page for the retry, modeling firmware's rewrite-elsewhere recovery.
func (c *Controller) programLBA(now sim.Time, lba uint64, data []byte) (sim.Time, error) {
	done, err := c.fl.Write(now, ftl.LBA(lba), data)
	if err != nil {
		return done, err
	}
	if out := c.inj.Check(fault.SiteNANDProgram, lba); out.Hit {
		c.fltProgRetry.Inc()
		done, err = c.fl.Write(done, ftl.LBA(lba), data)
	}
	return done, err
}
