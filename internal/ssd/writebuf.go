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

// The buffer is a FIFO: wbuf holds the staged pages oldest first, and
// wbufIdx maps each LBA to its entry's position counted from the first
// page ever staged, so wbuf[idx-wbufBase] is the entry. Destaging the
// oldest pages advances wbufBase and moves or renumbers no other entry.

// bufLookup returns the buffered content of lba, if present. All read
// paths (block, fine, CMB, oracle) consult it for coherence.
func (c *Controller) bufLookup(lba uint64) ([]byte, bool) {
	idx, ok := c.wbufIdx[lba]
	if !ok {
		return nil, false
	}
	return c.wbuf[idx-c.wbufBase].data, true
}

// bufInsert stages one page, overwriting any previous version in place.
func (c *Controller) bufInsert(lba uint64, data []byte) {
	stored := make([]byte, len(data))
	copy(stored, data)
	if idx, ok := c.wbufIdx[lba]; ok {
		c.wbuf[idx-c.wbufBase].data = stored
		return
	}
	c.wbufIdx[lba] = c.wbufBase + len(c.wbuf)
	c.wbuf = append(c.wbuf, wbEntry{lba: lba, data: stored})
}

// bufDrop removes a page (Trim of a buffered LBA). The pages staged after
// it move up one place, so the rest still destage oldest first.
func (c *Controller) bufDrop(lba uint64) {
	idx, ok := c.wbufIdx[lba]
	if !ok {
		return
	}
	delete(c.wbufIdx, lba)
	i := idx - c.wbufBase
	last := len(c.wbuf) - 1
	copy(c.wbuf[i:], c.wbuf[i+1:])
	c.wbuf[last] = wbEntry{}
	c.wbuf = c.wbuf[:last]
	for _, e := range c.wbuf[i:] {
		c.wbufIdx[e.lba]--
	}
}

// destage programs the oldest buffered pages to NAND until at most keep
// remain. Every program issues at now, so pages the FTL stripes over
// different dies program together; the returned time is the latest
// completion, which a background destage does not wait for (the NAND
// resource timelines absorb the work).
func (c *Controller) destage(now sim.Time, keep int) (sim.Time, error) {
	t := now
	var err error
	n := 0
	for n < len(c.wbuf)-keep && err == nil {
		e := c.wbuf[n]
		c.wbuf[n] = wbEntry{}
		n++
		delete(c.wbufIdx, e.lba)
		var done sim.Time
		if done, err = c.programLBA(now, e.lba, e.data); err == nil {
			t = max(t, done)
			c.stats.PagesDestaged++
		}
	}
	c.wbuf = c.wbuf[n:]
	c.wbufBase += n
	return t, err
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
		if _, err := c.destage(t, c.cfg.WriteBufferPages/2); err != nil {
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
	t := now + FirmwareBlockOverhead
	if c.cfg.WriteBufferPages > 0 {
		var err error
		t, err = c.destage(t, 0)
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
