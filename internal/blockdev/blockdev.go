// Package blockdev models the generic block layer: it takes page-granular
// read/write requests from the filesystem, coalesces adjacent LBAs into
// larger device commands (the merge step of §2.1's read path), and
// dispatches them through the NVMe driver, charging a per-request software
// cost for the queueing/scheduling machinery.
//
// Commands for disjoint runs are issued at the same virtual instant —
// NVMe queue depth lets them race across the device's channels — and the
// aggregate completes when the last one does.
package blockdev

import (
	"errors"
	"fmt"
	"slices"

	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// Config tunes the layer.
type Config struct {
	// PerRequestOverhead is the block-layer software cost per merged
	// device command (request allocation, scheduling, completion path).
	PerRequestOverhead sim.Time
	// MaxPagesPerCommand bounds merging (device MDTS).
	MaxPagesPerCommand int
}

// DefaultConfig returns kernel-flavoured costs.
func DefaultConfig() Config {
	return Config{
		PerRequestOverhead: 3 * sim.Microsecond,
		MaxPagesPerCommand: 64,
	}
}

// Stats counts layer activity.
type Stats struct {
	ReadRequests  uint64 // page-granular reads accepted
	WriteRequests uint64
	ReadCommands  uint64 // device commands after merging
	WriteCommands uint64
	PagesRead     uint64
	PagesWritten  uint64
}

// Layer is the block layer bound to one device queue pair.
type Layer struct {
	cfg      Config
	drv      *nvme.Driver
	pageSize int
	stats    Stats
	tr       telemetry.Tracer
	sa       *telemetry.StageAccount

	// Request-scoped scratch (the layer, like the whole stack, is
	// single-threaded): sort buffer and run list for coalescing, and the
	// command data buffer reused across merged commands.
	sortBuf []uint64
	runs    []run
	readBuf []byte
}

// New creates a layer over a driver.
func New(drv *nvme.Driver, pageSize int, cfg Config) (*Layer, error) {
	if pageSize <= 0 {
		return nil, errors.New("blockdev: page size must be positive")
	}
	if cfg.MaxPagesPerCommand <= 0 {
		return nil, errors.New("blockdev: MaxPagesPerCommand must be positive")
	}
	return &Layer{cfg: cfg, drv: drv, pageSize: pageSize, tr: telemetry.Nop()}, nil
}

// Stats returns a copy of the counters.
func (l *Layer) Stats() Stats { return l.stats }

// SetTracer installs a tracer; each merged device command becomes one span
// on the block track.
func (l *Layer) SetTracer(tr telemetry.Tracer) { l.tr = telemetry.OrNop(tr) }

// SetStages installs the per-request stage account; the layer attributes
// its per-command software overhead to the queue stage.
func (l *Layer) SetStages(sa *telemetry.StageAccount) { l.sa = sa }

// run is a merged contiguous extent.
type run struct {
	start uint64
	count int
}

// coalesce sorts and merges page LBAs into contiguous runs, capped at
// MaxPagesPerCommand. Duplicate LBAs are collapsed. The returned slice is
// layer-owned scratch, valid until the next call.
func (l *Layer) coalesce(lbas []uint64) []run {
	if len(lbas) == 0 {
		return nil
	}
	sorted := append(l.sortBuf[:0], lbas...)
	l.sortBuf = sorted
	slices.Sort(sorted)

	runs := l.runs[:0]
	cur := run{start: sorted[0], count: 1}
	for _, lba := range sorted[1:] {
		switch {
		case lba == cur.start+uint64(cur.count)-1:
			// duplicate: collapse
		case lba == cur.start+uint64(cur.count) && cur.count < l.cfg.MaxPagesPerCommand:
			cur.count++
		default:
			runs = append(runs, cur)
			cur = run{start: lba, count: 1}
		}
	}
	l.runs = append(runs, cur)
	return l.runs
}

// ReadPagesEach reads the given page LBAs and delivers each page's content
// through deliver, in ascending LBA order (duplicates delivered once). The
// data slice is layer-owned scratch, valid only for the duration of the
// callback — copy what must outlive it. It returns the completion time of
// the last command and the host bytes moved. All merged commands issue at
// now and race on the device.
func (l *Layer) ReadPagesEach(now sim.Time, lbas []uint64, deliver func(lba uint64, data []byte)) (sim.Time, uint64, error) {
	return l.ReadPagesKeep(now, lbas, lbas, deliver)
}

// ReadPagesKeep is ReadPagesEach for a caller that looks at the bytes of
// only some pages, those whose LBA is in keep: a command of at most
// nvme.DiscardPages pages delivers every other page with nil data (a
// longer one delivers them all). The device still reads
// and transfers every page (see nvme.Command.Discard), so the completion
// time, the bytes moved and every counter are those of ReadPagesEach.
func (l *Layer) ReadPagesKeep(now sim.Time, lbas, keep []uint64, deliver func(lba uint64, data []byte)) (sim.Time, uint64, error) {
	if len(lbas) == 0 {
		return now, 0, nil
	}
	l.stats.ReadRequests += uint64(len(lbas))
	done := now
	var moved uint64
	for _, r := range l.coalesce(lbas) {
		need := r.count * l.pageSize
		if cap(l.readBuf) < need {
			l.readBuf = make([]byte, need)
		}
		buf := l.readBuf[:need]
		var discard uint64
		if r.count <= nvme.DiscardPages {
			discard = ^uint64(0) >> (64 - r.count)
			for _, k := range keep {
				if k-r.start < uint64(r.count) {
					discard &^= 1 << (k - r.start)
				}
			}
		}
		issueAt := now + l.cfg.PerRequestOverhead
		l.sa.Mark(telemetry.StageQueue, issueAt)
		comp, err := l.drv.Submit(issueAt, nvme.Command{
			Op: nvme.OpRead, LBA: r.start, Pages: r.count, Data: buf, Discard: discard,
		})
		if err != nil {
			return now, moved, fmt.Errorf("blockdev: read submit: %w", err)
		}
		if !comp.Ok() {
			return comp.Done, moved, fmt.Errorf("blockdev: read [%d,+%d): %w", r.start, r.count, comp.Status.Err())
		}
		for i := 0; i < r.count; i++ {
			var data []byte
			if discard&(1<<uint(i)) == 0 {
				data = buf[i*l.pageSize : (i+1)*l.pageSize]
			}
			deliver(r.start+uint64(i), data)
		}
		if l.tr.Enabled() {
			l.tr.Span(telemetry.TrackBlock, "read", now, comp.Done)
		}
		if comp.Done > done {
			done = comp.Done
		}
		moved += comp.BytesMoved
		l.stats.ReadCommands++
		l.stats.PagesRead += uint64(r.count)
	}
	return done, moved, nil
}

// ReadPages reads the given page LBAs. It returns the page contents keyed
// by LBA and the completion time of the last command. All merged commands
// issue at now and race on the device. Hot paths should prefer
// ReadPagesEach, which does not allocate the result map.
func (l *Layer) ReadPages(now sim.Time, lbas []uint64) (map[uint64][]byte, sim.Time, uint64, error) {
	if len(lbas) == 0 {
		return nil, now, 0, nil
	}
	out := make(map[uint64][]byte, len(lbas))
	done, moved, err := l.ReadPagesEach(now, lbas, func(lba uint64, data []byte) {
		page := make([]byte, len(data))
		copy(page, data)
		out[lba] = page
	})
	if err != nil {
		return nil, done, moved, err
	}
	return out, done, moved, nil
}

// WritePages writes contiguous pages starting at lba. data must be
// page-aligned in length. Commands are split at MaxPagesPerCommand and
// chained (writes serialize on the FTL frontier anyway).
func (l *Layer) WritePages(now sim.Time, lba uint64, data []byte) (sim.Time, uint64, error) {
	if len(data) == 0 || len(data)%l.pageSize != 0 {
		return now, 0, fmt.Errorf("blockdev: write of %d bytes not page-aligned", len(data))
	}
	pages := len(data) / l.pageSize
	l.stats.WriteRequests += uint64(pages)
	t := now
	var moved uint64
	for off := 0; off < pages; off += l.cfg.MaxPagesPerCommand {
		n := l.cfg.MaxPagesPerCommand
		if off+n > pages {
			n = pages - off
		}
		issueAt := t + l.cfg.PerRequestOverhead
		l.sa.Mark(telemetry.StageQueue, issueAt)
		comp, err := l.drv.Submit(issueAt, nvme.Command{
			Op:    nvme.OpWrite,
			LBA:   lba + uint64(off),
			Pages: n,
			Data:  data[off*l.pageSize : (off+n)*l.pageSize],
		})
		if err != nil {
			return t, moved, fmt.Errorf("blockdev: write submit: %w", err)
		}
		if !comp.Ok() {
			return comp.Done, moved, fmt.Errorf("blockdev: write [%d,+%d): %w", lba+uint64(off), n, comp.Status.Err())
		}
		if l.tr.Enabled() {
			l.tr.Span(telemetry.TrackBlock, "write", t, comp.Done)
		}
		t = comp.Done
		moved += comp.BytesMoved
		l.stats.WriteCommands++
		l.stats.PagesWritten += uint64(n)
	}
	return t, moved, nil
}

// Trim discards the given contiguous page range.
func (l *Layer) Trim(now sim.Time, lba uint64, pages int) (sim.Time, error) {
	issueAt := now + l.cfg.PerRequestOverhead
	l.sa.Mark(telemetry.StageQueue, issueAt)
	comp, err := l.drv.Submit(issueAt, nvme.Command{
		Op: nvme.OpTrim, LBA: lba, Pages: pages,
	})
	if err != nil {
		return now, err
	}
	if !comp.Ok() {
		return comp.Done, fmt.Errorf("blockdev: trim: %w", comp.Status.Err())
	}
	return comp.Done, nil
}
