package ssd

import (
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// Controller write buffer: real NVMe drives acknowledge writes once the
// data sits in controller DRAM and destage to NAND in the background,
// hiding tPROG from the host. The buffer is volatile — OpFlush is what
// gives durability, exactly the POSIX fsync contract.
//
// Disabled by default (WriteBufferPages = 0) so the calibrated experiment
// results are unchanged; enable it via config to study its effect (the
// write-buffer ablation does).

// wbEntry is one buffered page.
type wbEntry struct {
	lba  uint64
	data []byte
}

// bufLookup returns the buffered content of lba, if present. All read
// paths (block, fine, CMB, oracle) consult it for coherence.
func (c *Controller) bufLookup(lba uint64) ([]byte, bool) {
	idx, ok := c.wbufIdx[lba]
	if !ok {
		return nil, false
	}
	return c.wbuf[idx].data, true
}

// bufInsert stages one page, overwriting any previous version in place.
func (c *Controller) bufInsert(lba uint64, data []byte) {
	stored := make([]byte, len(data))
	copy(stored, data)
	if idx, ok := c.wbufIdx[lba]; ok {
		c.wbuf[idx].data = stored
		return
	}
	c.wbufIdx[lba] = len(c.wbuf)
	c.wbuf = append(c.wbuf, wbEntry{lba: lba, data: stored})
}

// bufDrop removes a page (Trim of a buffered LBA).
func (c *Controller) bufDrop(lba uint64) {
	idx, ok := c.wbufIdx[lba]
	if !ok {
		return
	}
	last := len(c.wbuf) - 1
	c.wbuf[idx] = c.wbuf[last]
	c.wbufIdx[c.wbuf[idx].lba] = idx
	c.wbuf = c.wbuf[:last]
	delete(c.wbufIdx, lba)
}

// destage flushes buffered pages to NAND, oldest first, until at most
// keep remain. Programs issue at now; when background is true the caller
// does not wait (NAND resource timelines absorb the work), otherwise the
// returned time covers the full drain.
func (c *Controller) destage(now sim.Time, keep int, background bool) (sim.Time, error) {
	t := now
	for len(c.wbuf) > keep {
		e := c.wbuf[0]
		c.wbuf = c.wbuf[1:]
		delete(c.wbufIdx, e.lba)
		done, err := c.programLBA(t, e.lba, e.data)
		if err != nil {
			return t, err
		}
		if !background {
			t = done
		}
		c.stats.PagesDestaged++
	}
	// Reindex after the slice shifted.
	for i := range c.wbuf {
		c.wbufIdx[c.wbuf[i].lba] = i
	}
	return t, nil
}

// execBufferedWrite handles OpWrite when the write buffer is enabled:
// DMA in, stage, acknowledge; destage in the background when past the
// high-water mark.
func (c *Controller) execBufferedWrite(now sim.Time, cmd *nvme.Command) nvme.Completion {
	ps := c.cfg.NAND.PageSize
	if cmd.Pages <= 0 || len(cmd.Data) != cmd.Pages*ps {
		return nvme.Completion{Status: nvme.StatusInvalidCommand, Done: now}
	}
	c.stats.WriteCmds++
	_, t := c.linkSpan(now+FirmwareBlockOverhead, dmaTime(len(cmd.Data)))
	c.stats.BytesFromHost += uint64(len(cmd.Data))
	for i := 0; i < cmd.Pages; i++ {
		lba := cmd.LBA + uint64(i)
		// Writes must target exported LBAs even while buffered.
		if lba >= c.fl.LogicalPages() {
			return nvme.Completion{Status: nvme.StatusLBAOutOfRange, Done: t}
		}
		c.bufInsert(lba, cmd.Data[i*ps:(i+1)*ps])
	}
	if len(c.wbuf) > c.cfg.WriteBufferPages {
		if _, err := c.destage(t, c.cfg.WriteBufferPages/2, true); err != nil {
			return nvme.Completion{Status: statusFor(err), Done: t}
		}
	}
	if c.tr.Enabled() {
		c.tr.Span(telemetry.TrackSSD, "write.buffer", now, t)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: t, BytesMoved: uint64(len(cmd.Data))}
}

// execFlush drains the write buffer synchronously — durability point.
func (c *Controller) execFlush(now sim.Time) nvme.Completion {
	c.stats.FlushCmds++
	t := now + FirmwareBlockOverhead
	if c.cfg.WriteBufferPages > 0 {
		var err error
		t, err = c.destage(t, 0, false)
		if err != nil {
			return nvme.Completion{Status: statusFor(err), Done: t}
		}
	}
	if c.tr.Enabled() {
		c.tr.Span(telemetry.TrackSSD, "flush", now, t)
	}
	return nvme.Completion{Status: nvme.StatusOK, Done: t}
}

// BufferedPages reports pages currently staged in controller DRAM.
func (c *Controller) BufferedPages() int { return len(c.wbuf) }
