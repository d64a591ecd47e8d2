package baseline

import (
	"fmt"

	"pipette/internal/metrics"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// TwoBSSDMode selects the byte-interface transfer mechanism.
type TwoBSSDMode int

// The two read modes of 2B-SSD (Bae et al., ISCA'18) the paper compares
// against.
const (
	MMIO TwoBSSDMode = iota
	DMA
)

// TwoBSSD models the 2B-SSD baseline (§2.2): the host reads through the
// Controller Memory Buffer, paying a critical-path setup per access — a
// page fault before MMIO loads, or a DMA mapping before a DMA transfer —
// and bypassing the I/O stack entirely, so there is no host-side caching
// of any kind ("without supporting data locality"). Writes take the
// conventional buffered path (the paper evaluates reads), so byte-interface
// reads observe pre-writeback flash content until Sync — a real limitation
// of the baseline the paper calls out ("simply bypasses the I/O stack").
type TwoBSSD struct {
	*VFSEngine // writes, Sync and the stack's instruments
	mode       TwoBSSDMode
	setup      sim.Time // per-access page fault (MMIO) or DMA mapping

	lbaScratch  []uint64
	slotScratch []int

	io metrics.IO
}

// NewTwoBSSD builds the baseline in the given mode.
func NewTwoBSSD(cfg StackConfig, mode TwoBSSDMode) (*TwoBSSD, error) {
	name, setup := "2B-SSD MMIO", PageFault
	if mode == DMA {
		name, setup = "2B-SSD DMA", DMAMap
	}
	e, err := newVFSEngine(cfg, name, false)
	if err != nil {
		return nil, err
	}
	return &TwoBSSD{VFSEngine: e, mode: mode, setup: setup}, nil
}

// Oracle implements Engine. The byte interface bypasses the page cache, so
// the device's content, not the file's latest bytes, is what a read must
// return: written pages show only once writeback lands them.
func (e *TwoBSSD) Oracle(buf []byte, off int64) error {
	return e.st.V.FS().Peek(e.file.Inode(), off, buf)
}

// ReadAt implements Engine: load the covering NAND pages into the CMB
// (they race across channels), then move only the demanded bytes across
// PCIe via MMIO transactions or a DMA transfer. The byte interface
// bypasses the VFS, so the engine owns the stage-account request scope
// itself.
func (e *TwoBSSD) ReadAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	e.st.SA.Begin(now)
	done, err := e.readAt(now, buf, off)
	e.st.SA.Finish(done)
	return done, err
}

func (e *TwoBSSD) readAt(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	n := len(buf)
	if off < 0 || off+int64(n) > e.file.Size() {
		return now, fmt.Errorf("baseline: 2B-SSD read [%d,+%d) out of file", off, n)
	}
	e.io.BytesRequested += uint64(n)
	ps := e.st.Ctrl.PageSize()
	lbas, err := e.file.Inode().AppendLBAs(e.lbaScratch[:0], off, n, ps)
	e.lbaScratch = lbas[:0]
	if err != nil {
		return now, err
	}

	// Per-access critical-path setup (§2.2): page fault for MMIO mapping
	// or DMA mapping establishment.
	now += e.setup
	e.st.SA.Mark(telemetry.StageConstruct, now)

	// Load pages to the CMB; issue together, wait for the last.
	if cap(e.slotScratch) < len(lbas) {
		e.slotScratch = make([]int, len(lbas))
	}
	slots := e.slotScratch[:len(lbas)]
	loadDone := now
	for i, lba := range lbas {
		slot, done, err := e.st.Ctrl.LoadToCMB(now, lba)
		if err != nil {
			// The failed access still waits for its racing loads.
			if done > loadDone {
				loadDone = done
			}
			return loadDone, fmt.Errorf("baseline: CMB load: %w", err)
		}
		slots[i] = slot
		if done > loadDone {
			loadDone = done
		}
	}

	// Close the racing loads' attribution window at the last completion.
	e.st.SA.Mark(telemetry.StageNAND, loadDone)

	// Transfer the demanded window page by page.
	t := loadDone
	for i, lba := range lbas {
		_ = lba
		pageStart := (off/int64(ps) + int64(i)) * int64(ps)
		lo, hi := off, off+int64(n)
		if pageStart > lo {
			lo = pageStart
		}
		if pageEnd := pageStart + int64(ps); pageEnd < hi {
			hi = pageEnd
		}
		if hi <= lo {
			continue
		}
		dst := buf[lo-off : hi-off]
		inPage := int(lo - pageStart)
		var done sim.Time
		var terr error
		if e.mode == MMIO {
			done, terr = e.st.Ctrl.MMIORead(t, slots[i], inPage, dst)
		} else {
			done, terr = e.st.Ctrl.DMAReadFromCMB(t, slots[i], inPage, dst)
		}
		if terr != nil {
			return t, terr
		}
		t = done
	}
	e.io.BytesTransferred += uint64(n)
	e.io.FineReads++
	return t, nil
}

// Snapshot implements Engine: the stack's buffered-path traffic plus the
// byte interface's.
func (e *TwoBSSD) Snapshot() metrics.Snapshot {
	snap := e.VFSEngine.Snapshot()
	snap.IO.BytesRequested += e.io.BytesRequested
	snap.IO.BytesTransferred += e.io.BytesTransferred
	snap.IO.FineReads = e.io.FineReads
	// No host-side caching: memory usage is zero by design.
	snap.MemoryMB = 0
	return snap
}
