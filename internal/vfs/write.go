package vfs

import (
	"fmt"
	"io"

	"pipette/internal/fault"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// WriteAt writes len(data) bytes at off through the page cache: full-page
// overwrites go straight to dirty pages; partial pages read-modify-write.
// Dirty pages persist on Sync or when evicted (writeback). The fine-grained
// router's OnWrite hook fires for consistency (§3.1.3): every write deletes
// overlapping fine-cache items so later fine reads see either the updated
// page cache or the post-flush flash content.
func (f *File) WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	v := f.v
	v.sa.Begin(now)
	if tr := v.tr; tr.Enabled() {
		tr.BeginRequest(fmt.Sprintf("write %dB", len(data)), now)
		n, done, err := f.writeAt(now, data, off)
		tr.EndRequest(done)
		v.sa.Finish(done)
		return n, done, err
	}
	n, done, err := f.writeAt(now, data, off)
	v.sa.Finish(done)
	return n, done, err
}

func (f *File) writeAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	v := f.v
	if f.closed {
		return 0, now, ErrClosed
	}
	if f.flags&ReadWrite == 0 {
		return 0, now, fmt.Errorf("vfs: %q not opened for writing", f.inode.Name)
	}
	if off < 0 {
		return 0, now, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off+int64(len(data)) > f.inode.Size {
		return 0, now, fmt.Errorf("vfs: write [%d,+%d) beyond fixed size %d of %q",
			off, len(data), f.inode.Size, f.inode.Name)
	}
	if len(data) == 0 {
		return 0, now, nil
	}
	if v.tr.Enabled() {
		v.tr.Span(telemetry.TrackVFS, "syscall", now, now+SyscallOverhead)
	}
	now += SyscallOverhead
	v.sa.Mark(telemetry.StageSyscall, now)
	ps := int64(v.fs.PageSize())
	first := uint64(off / ps)
	last := uint64((off + int64(len(data)) - 1) / ps)
	done := now

	for p := first; p <= last; p++ {
		lo, hi, dataLo, pageLo := overlap(off, len(data), p, v.fs.PageSize())
		if hi <= lo {
			continue
		}
		key := pagecache.Key{File: f.inode.Ino, Index: p}
		var page []byte
		if pageLo == 0 && hi-lo == ps {
			// Full-page overwrite: no read, and no counted access. A
			// resident dirty page is edited in place.
			if page = v.cache.DirtyData(key); page == nil {
				page = v.getPageBuf()
			}
		} else {
			// Read-modify-write: obtain the current page content.
			var err error
			if page, done, err = v.loadPageForRMW(done, f, p); err != nil {
				return 0, done, err
			}
		}
		copy(page[pageLo:], data[dataLo:dataLo+int(hi-lo)])

		marked, err := v.cache.MarkDirty(key, page)
		if err != nil {
			return 0, done, err
		}
		if !marked {
			if err := v.cache.Insert(key, true, page); err != nil {
				return 0, done, err
			}
		}
	}
	v.io.Writes++
	if v.router != nil {
		v.router.OnWrite(f.inode.Ino, off, len(data))
	}
	done, err := v.drainWriteback(done)
	if err != nil {
		return 0, done, err
	}
	return len(data), v.copyOut(done), nil
}

// loadPageForRMW returns a buffer holding the current content of file page
// p, after one counted cache lookup: a resident dirty page's own buffer
// (the write edits it in place), or a fresh buffer filled from the clean
// oracle, the device (timed block read), or zeros for a hole.
func (v *VFS) loadPageForRMW(now sim.Time, f *File, p uint64) ([]byte, sim.Time, error) {
	key := pagecache.Key{File: f.inode.Ino, Index: p}
	data, dirty, ok := v.cache.Lookup(key)
	if ok && dirty {
		return data, now, nil
	}
	page := v.getPageBuf()
	if ok {
		return page, now, v.fs.Peek(f.inode, int64(p)*int64(v.fs.PageSize()), pageTrim(page, f, p, v.fs.PageSize()))
	}
	got, done, err := v.fetchPages(now, f, p, 1, page, 0)
	if err == nil && !got {
		// Hole page: reads as zeros, and the buffer may be recycled.
		clear(page)
	}
	return page, done, err
}

// pageTrim bounds the oracle read to the file tail (the last page of a
// file whose size is not page-aligned is shorter on the device).
func pageTrim(page []byte, f *File, p uint64, pageSize int) []byte {
	start := int64(p) * int64(pageSize)
	if rem := f.inode.Size - start; rem < int64(len(page)) {
		return page[:rem]
	}
	return page
}

// Sync flushes this file's dirty pages to the device — fsync(2). Every
// page's write issues at now, as the kernel's writeback submits a file's
// dirty pages before it waits on any of them, so the FTL's die striping
// overlaps their programs. Once the latest completes, Sync flushes the
// device's volatile write cache, if it has one, through the block layer.
// The first error stops the flush and leaves later pages dirty. The whole
// flush is attributed to the writeback stage: fsync is, by definition, time
// spent blocked on dirty-page persistence.
func (f *File) Sync(now sim.Time) (sim.Time, error) {
	v := f.v
	if f.closed {
		return now, ErrClosed
	}
	v.sa.Begin(now)
	done := now
	err := v.cache.FlushDirtySelect(
		func(k pagecache.Key) bool { return k.File == f.inode.Ino },
		func(k pagecache.Key, data []byte) error {
			t, err := v.writebackPage(now, k, data)
			if err != nil {
				return err
			}
			v.putPageBuf(data)
			done = max(done, t)
			return nil
		})
	if err == nil {
		// The pages may sit in the device's volatile write cache: once
		// they have all landed, flush it.
		done, err = v.blk.Flush(done)
	}
	v.sa.Reattribute(now, telemetry.StageWriteback)
	v.sa.Mark(telemetry.StageWriteback, done)
	v.sa.Finish(done)
	return done, err
}

// writebackPage persists one dirty page.
func (v *VFS) writebackPage(now sim.Time, key pagecache.Key, data []byte) (sim.Time, error) {
	ino, err := v.fs.InodeByID(key.File)
	if err != nil {
		return now, err
	}
	lba, err := ino.PageToLBA(key.Index)
	if err != nil {
		return now, err
	}
	done, moved, err := v.blk.WritePages(now, lba, data)
	if err != nil {
		return done, err
	}
	if out := v.inj.Check(fault.SiteVFSWriteback, lba); out.Hit {
		// Transient writeback failure: the flusher re-issues the command
		// from the failed attempt's completion time.
		v.fltWB.Inc()
		var rmoved uint64
		done, rmoved, err = v.blk.WritePages(done, lba, data)
		if err != nil {
			return done, err
		}
		moved += rmoved
	}
	v.io.BytesWritten += moved
	return done, nil
}

// FlushPendingWriteback lands any evicted-but-unflushed pages on the device.
// The fine router calls it immediately before a direct LBA read: its own
// budget rebalancing can evict dirty pages mid-request (the page cache
// shrinks under syncBudget), and a fine fetch that races ahead of their
// writeback would read — and admit into the fine cache — the pre-flush flash
// content. The same rule guards the block path at the top of fetchPages.
func (v *VFS) FlushPendingWriteback(now sim.Time) (sim.Time, error) {
	if len(v.pendingWB) == 0 {
		return now, nil
	}
	return v.drainWriteback(now)
}

// drainWriteback persists dirty pages that were evicted since the last
// drain. Writeback is asynchronous, as in the kernel's flusher threads: the
// device commands issue at now and occupy the FTL/NAND resource timelines
// (delaying later foreground I/O through contention), but the calling
// request does not block on the program latency.
func (v *VFS) drainWriteback(now sim.Time) (sim.Time, error) {
	// The drained commands cost the foreground request no virtual time;
	// suspend stage attribution so their completion marks don't leak into
	// the request's account (their device occupancy still lands on the
	// resource timelines).
	v.sa.Suspend()
	defer v.sa.Resume()
	for len(v.pendingWB) > 0 {
		// Writebacks can evict more dirty pages: they queue on the other
		// of the two buffers, which trade places each batch.
		pending := v.pendingWB
		v.pendingWB, v.drainWB = v.drainWB[:0], nil
		for _, wb := range pending {
			if _, err := v.writebackPage(now, wb.key, wb.data); err != nil {
				return now, err
			}
			v.putPageBuf(wb.data)
		}
		clear(pending) // drop the page references
		v.drainWB = pending[:0]
	}
	return now, nil
}

// ReadFull reads exactly len(buf) bytes at off or fails.
func (f *File) ReadFull(now sim.Time, buf []byte, off int64) (sim.Time, error) {
	n, done, err := f.ReadAt(now, buf, off)
	if err != nil && err != io.EOF {
		return done, err
	}
	if n != len(buf) {
		return done, fmt.Errorf("vfs: short read %d of %d at %d", n, len(buf), off)
	}
	return done, nil
}
