// Package vfs is the virtual filesystem layer: file handles with open
// flags (including the paper's O_FINE_GRAINED), the conventional
// block-based read path through the page cache with read-ahead (§2.1), the
// write path with read-modify-write and deferred writeback, and the hook
// where Pipette's fine-grained read path plugs in after a page-cache miss
// (§3.1.2).
//
// The VFS is deliberately framework-agnostic: a FineRouter implementation
// (Pipette's core, or a 2B-SSD baseline) intercepts fine-grained reads;
// with no router installed, every read takes the block path.
package vfs

import (
	"errors"
	"fmt"
	"io"

	"pipette/internal/blockdev"
	"pipette/internal/extfs"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// OpenFlag is a bit set of open(2)-style flags.
type OpenFlag uint32

// Open flags. FineGrained is the paper's new O_FINE_GRAINED: it permits the
// byte-granular read path for this file descriptor. Direct is O_DIRECT for
// reads: the descriptor's reads bypass the page cache and the fine router
// (see directRead); it takes precedence over FineGrained and leaves writes
// unchanged.
const (
	ReadOnly    OpenFlag = 0
	ReadWrite   OpenFlag = 1 << 0
	FineGrained OpenFlag = 1 << 1
	Direct      OpenFlag = 1 << 2
)

// FineRouter is the fine-grained read framework's entry point. The VFS
// calls TryFineRead after a fine-grained read misses the page cache; the
// router may serve it (handled=true) or decline, sending the request down
// the conventional block path — the Dispatcher decision of §3.1.2.
// OnWrite is the consistency hook of §3.1.3: every write invalidates
// overlapping fine-cache entries. OnRemove tells the router a file is gone,
// so it can drop whatever it tracks for the inode.
type FineRouter interface {
	TryFineRead(now sim.Time, f *File, off int64, buf []byte) (done sim.Time, handled bool, err error)
	OnWrite(ino uint64, off int64, n int)
	OnRemove(ino uint64)
}

// Linux-flavoured host software costs and read-ahead windows.
const (
	SyscallOverhead = 1200 * sim.Nanosecond // VFS entry: syscall + fd resolution + locking
	CopyOverhead    = 300 * sim.Nanosecond  // copy-out to the user buffer per request
	ReadaheadInit   = 4                     // initial read-ahead window (pages)
	ReadaheadMax    = 32                    // maximum read-ahead window (pages)
)

// Config sizes the host side.
type Config struct {
	PageCachePages int // page cache budget
}

// DefaultConfig returns a 256 MiB page cache.
func DefaultConfig() Config {
	return Config{PageCachePages: 64 << 10} // 256 MiB of 4 KiB pages
}

// VFS binds the filesystem metadata, the page cache, and the block layer.
// Not safe for concurrent use.
type VFS struct {
	fs     *extfs.FS
	blk    *blockdev.Layer
	cache  *pagecache.Cache
	ra     map[uint64]*pagecache.Readahead
	open   map[uint64]int // inode -> open descriptor count
	router FineRouter
	tr     telemetry.Tracer
	sa     *telemetry.StageAccount
	inj    *fault.Injector
	fltWB  telemetry.Counter

	io        metrics.IO
	pendingWB []wbEntry
	drainWB   []wbEntry // the batch drainWriteback is landing; reused

	// Request-scoped fetch scratch (the VFS is single-threaded).
	fetchLBAs  []uint64
	fetchPairs []fetchPair
	// pageFree recycles dirty-page buffers: writeAt hands buffers to the
	// cache (which owns them until writeback), and the writeback paths
	// return them here instead of leaving them to the garbage collector.
	pageFree [][]byte
}

// fetchPair maps a device LBA back to the file page it backs during one
// fetch.
type fetchPair struct {
	lba  uint64
	page uint64
}

type wbEntry struct {
	key  pagecache.Key
	data []byte
}

// New builds a VFS.
func New(fs *extfs.FS, blk *blockdev.Layer, cfg Config) (*VFS, error) {
	if cfg.PageCachePages < 0 {
		return nil, errors.New("vfs: negative page cache budget")
	}
	v := &VFS{
		fs:   fs,
		blk:  blk,
		ra:   make(map[uint64]*pagecache.Readahead),
		open: make(map[uint64]int),
		tr:   telemetry.Nop(),
	}
	cache, err := pagecache.New(cfg.PageCachePages, fs.PageSize(), v.onEvict)
	if err != nil {
		return nil, err
	}
	v.cache = cache
	return v, nil
}

// onEvict queues dirty evictees for writeback at the next opportunity.
func (v *VFS) onEvict(key pagecache.Key, dirty bool, data []byte) {
	if dirty {
		v.pendingWB = append(v.pendingWB, wbEntry{key: key, data: data})
	}
}

// SetRouter installs the fine-grained read framework. Passing nil removes
// it (plain block I/O).
func (v *VFS) SetRouter(r FineRouter) { v.router = r }

// SetTracer installs a tracer; each ReadAt/WriteAt becomes a request scope
// with syscall and copy-out phases.
func (v *VFS) SetTracer(tr telemetry.Tracer) { v.tr = telemetry.OrNop(tr) }

// SetStages installs the per-request stage account. The VFS owns the
// request scope: every ReadAt/WriteAt/Sync opens the account and closes it
// at its completion time, so stage times sum exactly to each request's
// end-to-end latency.
func (v *VFS) SetStages(sa *telemetry.StageAccount) { v.sa = sa }

// SetInjector arms vfs.writeback fault injection: a writeback command may
// report a transient failure and be re-issued by the flusher.
func (v *VFS) SetInjector(inj *fault.Injector) { v.inj = inj }

// WritebackRetries reports writeback commands the flusher re-issued after
// an injected transient failure.
func (v *VFS) WritebackRetries() uint64 { return v.fltWB.Load() }

// FS exposes the filesystem metadata layer.
func (v *VFS) FS() *extfs.FS { return v.fs }

// PageCache exposes the cache (the dynamic allocation strategy resizes it
// and reads its hit ratio).
func (v *VFS) PageCache() *pagecache.Cache { return v.cache }

// IO returns accumulated host I/O accounting.
func (v *VFS) IO() metrics.IO { return v.io }

// ErrClosed is returned by operations on a closed descriptor.
var ErrClosed = errors.New("vfs: file closed")

// File is an open file descriptor.
type File struct {
	v      *VFS
	inode  *extfs.Inode
	flags  OpenFlag
	closed bool
}

// Open opens an existing file.
func (v *VFS) Open(name string, flags OpenFlag) (*File, error) {
	ino, err := v.fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	v.open[ino.Ino]++
	return &File{v: v, inode: ino, flags: flags}, nil
}

// Create makes and opens a new fixed-size file.
func (v *VFS) Create(name string, size int64, opts extfs.CreateOpts, flags OpenFlag) (*File, error) {
	ino, err := v.fs.Create(name, size, opts)
	if err != nil {
		return nil, err
	}
	v.open[ino.Ino]++
	return &File{v: v, inode: ino, flags: flags}, nil
}

// Close releases the descriptor — close(2). The last close of an inode drops
// its read-ahead state from the open table. Dirty pages are not flushed;
// call Sync first for durability, exactly as with a real file descriptor.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	v := f.v
	if n := v.open[f.inode.Ino]; n > 1 {
		v.open[f.inode.Ino] = n - 1
		return nil
	}
	delete(v.open, f.inode.Ino)
	delete(v.ra, f.inode.Ino)
	return nil
}

// Remove unlinks a file: resident pages are discarded (dirty pages dropped
// without writeback — unlink semantics), queued writebacks for the inode are
// cancelled, read-ahead and open-table state is dropped, the fine router
// forgets the inode, and the file's blocks are trimmed on the device so the
// allocator can reuse them.
func (v *VFS) Remove(name string) error {
	ino, err := v.fs.Lookup(name)
	if err != nil {
		return err
	}
	v.cache.DiscardFile(ino.Ino, v.putPageBuf)
	if len(v.pendingWB) > 0 {
		kept := v.pendingWB[:0]
		for _, wb := range v.pendingWB {
			if wb.key.File == ino.Ino {
				v.putPageBuf(wb.data)
				continue
			}
			kept = append(kept, wb)
		}
		v.pendingWB = kept
	}
	delete(v.ra, ino.Ino)
	delete(v.open, ino.Ino)
	if v.router != nil {
		v.router.OnRemove(ino.Ino)
	}
	return v.fs.Remove(name)
}

// Inode exposes the file's metadata (the fine router's LBA extraction
// needs it).
func (f *File) Inode() *extfs.Inode { return f.inode }

// Size reports the file size.
func (f *File) Size() int64 { return f.inode.Size }

// Peek fills buf with the file's current bytes at [off, off+len(buf)),
// the content a read returns, at no virtual time and without counting a
// lookup, moving a page in the LRU or touching read-ahead. A resident
// dirty page supplies its own bytes, then the latest queued writeback of
// the page, then the device through extfs.FS.Peek (zeros for a hole).
func (f *File) Peek(off int64, buf []byte) error {
	v := f.v
	if off < 0 || off+int64(len(buf)) > f.inode.Size {
		return fmt.Errorf("%w: peek [%d,+%d) of %q", extfs.ErrBadRange, off, len(buf), f.inode.Name)
	}
	ps := v.fs.PageSize()
	for n := 0; n < len(buf); {
		p := uint64((off + int64(n)) / int64(ps))
		lo, hi, bufLo, pageLo := overlap(off, len(buf), p, ps)
		dst := buf[bufLo : bufLo+int(hi-lo)]
		if data := v.unflushed(pagecache.Key{File: f.inode.Ino, Index: p}); data != nil {
			copy(dst, data[pageLo:])
		} else if err := v.fs.Peek(f.inode, lo, dst); err != nil {
			return err
		}
		n += len(dst)
	}
	return nil
}

// unflushed returns the bytes of a page the device does not hold yet: the
// resident dirty copy, else the latest queued writeback; nil when the
// device's copy is current.
func (v *VFS) unflushed(key pagecache.Key) []byte {
	if data := v.cache.DirtyData(key); data != nil {
		return data
	}
	for i := len(v.pendingWB) - 1; i >= 0; i-- {
		if v.pendingWB[i].key == key {
			return v.pendingWB[i].data
		}
	}
	return nil
}

func (v *VFS) readahead(ino uint64) *pagecache.Readahead {
	ra, ok := v.ra[ino]
	if !ok {
		ra = pagecache.NewReadahead(ReadaheadInit, ReadaheadMax)
		v.ra[ino] = ra
	}
	return ra
}

// ReadAt reads up to len(buf) bytes at off, returning bytes read, the
// virtual completion time, and io.EOF past the end.
func (f *File) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	v := f.v
	v.sa.Begin(now)
	if tr := v.tr; tr.Enabled() {
		tr.BeginRequest(fmt.Sprintf("read %dB", len(buf)), now)
		n, done, err := f.readAt(now, buf, off)
		tr.EndRequest(done)
		v.sa.Finish(done)
		return n, done, err
	}
	n, done, err := f.readAt(now, buf, off)
	v.sa.Finish(done)
	return n, done, err
}

func (f *File) readAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	v := f.v
	if f.closed {
		return 0, now, ErrClosed
	}
	if off < 0 {
		return 0, now, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= f.inode.Size {
		return 0, now, io.EOF
	}
	n := len(buf)
	var eof error
	if rem := f.inode.Size - off; int64(n) > rem {
		n = int(rem)
		eof = io.EOF
	}
	if n == 0 {
		return 0, now, eof
	}
	buf = buf[:n]
	if v.tr.Enabled() {
		v.tr.Span(telemetry.TrackVFS, "syscall", now, now+SyscallOverhead)
	}
	now += SyscallOverhead
	v.sa.Mark(telemetry.StageSyscall, now)
	v.io.BytesRequested += uint64(n)

	if f.flags&Direct != 0 {
		// The device DMAs into the caller's buffer: no copy-out.
		done, err := v.directRead(now, f, buf, off)
		if err != nil {
			return 0, done, err
		}
		return n, done, eof
	}

	// Fine-grained path: consult the page cache first (§3.1.2); on a miss
	// hand the request to the router, which may still decline (Dispatcher
	// routes large reads back here).
	if f.flags&FineGrained != 0 && v.router != nil {
		if served, done := v.tryServeFromCache(now, f, buf, off); served {
			if v.tr.Enabled() {
				v.tr.Instant(telemetry.TrackPageCache, "hit", now)
			}
			return n, v.copyOut(done), eof
		}
		if v.tr.Enabled() {
			v.tr.Instant(telemetry.TrackPageCache, "miss", now)
		}
		// A partially resident range with a dirty page must not go fine:
		// the fine command reads flash below the cache, and a dirty
		// resident page's latest bytes exist only in host memory. The
		// block path merges cache and device per page; route it there.
		if !v.rangeHasDirty(f, off, n) {
			done, handled, err := v.router.TryFineRead(now, f, off, buf)
			if err != nil {
				return 0, done, err
			}
			if handled {
				return n, v.copyOut(done), eof
			}
			// Unhandled: the router may still have spent time (a fine attempt
			// that fell back on detected corruption); the block path resumes
			// from its completion. Plain declines return done == now.
			now = done
		}
	}

	done, err := v.blockRead(now, f, buf, off)
	if err != nil {
		return 0, done, err
	}
	return n, v.copyOut(done), eof
}

// copyOut accounts the user-buffer copy that ends every successful request.
func (v *VFS) copyOut(done sim.Time) sim.Time {
	end := done + CopyOverhead
	if v.tr.Enabled() {
		v.tr.Span(telemetry.TrackVFS, "copyout", done, end)
	}
	v.sa.Mark(telemetry.StageCopyout, end)
	return end
}

// rangeHasDirty reports whether any page covering [off, off+n) holds a
// resident dirty copy — content the device does not have yet.
func (v *VFS) rangeHasDirty(f *File, off int64, n int) bool {
	ps := int64(v.fs.PageSize())
	first := uint64(off / ps)
	last := uint64((off + int64(n) - 1) / ps)
	for p := first; p <= last; p++ {
		if v.cache.ContainsDirty(pagecache.Key{File: f.inode.Ino, Index: p}) {
			return true
		}
	}
	return false
}

// tryServeFromCache serves the request if every covering page is resident.
// Each covering page's lookup is counted (hit or miss) exactly as the
// paper's dual-cache accounting expects.
func (v *VFS) tryServeFromCache(now sim.Time, f *File, buf []byte, off int64) (bool, sim.Time) {
	ps := int64(v.fs.PageSize())
	first := uint64(off / ps)
	last := uint64((off + int64(len(buf)) - 1) / ps)
	// A multi-page range peeks residency without accounting first, then
	// does counted lookups, so a partially resident range registers as one
	// miss, not several. A one-page range needs no peek: its one counted
	// lookup below is that hit or miss.
	if first != last {
		for p := first; p <= last; p++ {
			if !v.cache.Contains(pagecache.Key{File: f.inode.Ino, Index: p}) {
				v.cache.Lookup(pagecache.Key{File: f.inode.Ino, Index: p}) // counted miss
				return false, now
			}
		}
	}
	for n := 0; n < len(buf); {
		abs := off + int64(n)
		p := uint64(abs / ps)
		inPage := int(abs % ps)
		chunk := v.fs.PageSize() - inPage
		if rem := len(buf) - n; chunk > rem {
			chunk = rem
		}
		data, dirty, ok := v.cache.Lookup(pagecache.Key{File: f.inode.Ino, Index: p})
		if !ok {
			return false, now // a one-page range's counted miss
		}
		if dirty {
			copy(buf[n:n+chunk], data[inPage:])
		} else if err := v.fs.Peek(f.inode, abs, buf[n:n+chunk]); err != nil {
			return false, now
		}
		n += chunk
	}
	return true, now
}

// blockRead is the conventional path of §2.1: per-page cache lookups,
// read-ahead on misses, merged block-layer fetches, page-granular
// promotion into the cache.
func (v *VFS) blockRead(now sim.Time, f *File, buf []byte, off int64) (sim.Time, error) {
	ps := int64(v.fs.PageSize())
	first := uint64(off / ps)
	last := uint64((off + int64(len(buf)) - 1) / ps)
	filePages := f.inode.PageCount(v.fs.PageSize())
	ra := v.readahead(f.inode.Ino)
	done := now

	for p := first; p <= last; p++ {
		key := pagecache.Key{File: f.inode.Ino, Index: p}
		data, dirty, ok := v.cache.Lookup(key)
		if ok {
			ra.OnHit(p)
			v.copyFromPage(f, buf, off, p, data, dirty)
			continue
		}
		if v.tr.Enabled() {
			v.tr.Instant(telemetry.TrackPageCache, "miss", now)
		}
		// Miss: read-ahead decides the fetch window.
		count := ra.OnMiss(p)
		if p+uint64(count) > filePages {
			count = int(filePages - p)
		}
		lo, hi, bufLo, pageLo := overlap(off, len(buf), p, v.fs.PageSize())
		var want []byte
		if hi > lo {
			want = buf[bufLo : bufLo+int(hi-lo)]
		}
		gotWant, fetchDone, err := v.fetchPages(now, f, p, count, want, pageLo)
		if err != nil {
			return fetchDone, err
		}
		if fetchDone > done {
			done = fetchDone
		}
		if !gotWant {
			if err := v.fs.Peek(f.inode, int64(p)*ps, nil); err == nil {
				// Hole page: zeros (buf regions default to stale caller
				// bytes, so clear explicitly).
				v.zeroFill(buf, off, p)
			}
		}
	}
	return v.drainWriteback(done)
}

// fetchPages reads up to count pages starting at page p through the block
// layer, skipping already-resident pages and unmapped holes, and promotes
// every fetched page into the cache (clean), in ascending-LBA order so the
// cache's recency list evolves identically run to run. If want is non-nil
// and page p is fetched, its content starting at page offset wantOff is
// copied into want and gotWant is true. The cache keeps clean pages as
// metadata, so page p's bytes, when wanted, are the only ones the fetch
// asks the device for.
func (v *VFS) fetchPages(now sim.Time, f *File, p uint64, count int, want []byte, wantOff int) (bool, sim.Time, error) {
	// Evicted-but-unflushed pages must reach the device before it serves
	// this fetch, or the read returns the pre-writeback flash content. The
	// window opens when an eviction queues a dirty page mid-request (cache
	// pressure, or the fine router shrinking the budget) and a later fetch
	// wants that very page.
	if len(v.pendingWB) > 0 {
		if _, err := v.drainWriteback(now); err != nil {
			return false, now, err
		}
	}
	ctrl := v.fs.Controller()
	lbas := v.fetchLBAs[:0]
	pairs := v.fetchPairs[:0]
	var keepBuf [1]uint64
	var keep []uint64
	for i := 0; i < count; i++ {
		page := p + uint64(i)
		key := pagecache.Key{File: f.inode.Ino, Index: page}
		if v.cache.Contains(key) {
			continue
		}
		lba, err := f.inode.PageToLBA(page)
		if err != nil {
			v.fetchLBAs, v.fetchPairs = lbas, pairs
			return false, now, err
		}
		if !ctrl.Written(lba) {
			continue // hole: reads as zeros, nothing to fetch
		}
		lbas = append(lbas, lba)
		if page == p && want != nil {
			keepBuf[0] = lba
			keep = keepBuf[:]
		}
		pairs = insertPair(pairs, fetchPair{lba: lba, page: page})
	}
	v.fetchLBAs, v.fetchPairs = lbas, pairs
	if len(lbas) == 0 {
		return false, now, nil
	}
	gotWant := false
	idx := 0
	var insertErr error
	done, moved, err := v.blk.ReadPagesKeep(now, lbas, keep, func(lba uint64, data []byte) {
		for idx < len(pairs) && pairs[idx].lba < lba {
			idx++
		}
		if idx >= len(pairs) || pairs[idx].lba != lba {
			return
		}
		page := pairs[idx].page
		if page == p && want != nil {
			copy(want, data[wantOff:])
			gotWant = true
		}
		if e := v.cache.Insert(pagecache.Key{File: f.inode.Ino, Index: page}, false, nil); e != nil && insertErr == nil {
			insertErr = e
		}
	})
	if err == nil {
		err = insertErr
	}
	if err != nil {
		return gotWant, done, err
	}
	v.io.BytesTransferred += moved
	v.io.BlockReads += uint64(len(lbas))
	return gotWant, done, nil
}

// insertPair inserts fp into pairs, kept sorted by LBA: the delivery walks
// need ascending order. A file's pages mostly map to ascending LBAs, so the
// insertion sort rarely moves anything.
func insertPair(pairs []fetchPair, fp fetchPair) []fetchPair {
	j := len(pairs)
	pairs = append(pairs, fp)
	for j > 0 && pairs[j-1].lba > fp.lba {
		pairs[j] = pairs[j-1]
		j--
	}
	pairs[j] = fp
	return pairs
}

// directRead serves a Direct read. Pending writeback drains first, as
// before any fetch. A resident page is served from the cache (a dirty one
// holds the only copy of its bytes) without counting the access or moving
// it in the LRU; a hole reads as zeros; every other page is read from the
// device in merged block commands issued at now, straight into buf.
// Nothing enters or leaves the page cache, read-ahead state is untouched,
// and the fine router is never consulted.
func (v *VFS) directRead(now sim.Time, f *File, buf []byte, off int64) (sim.Time, error) {
	if len(v.pendingWB) > 0 {
		if _, err := v.drainWriteback(now); err != nil {
			return now, err
		}
	}
	ps := v.fs.PageSize()
	first := uint64(off / int64(ps))
	last := uint64((off + int64(len(buf)) - 1) / int64(ps))
	ctrl := v.fs.Controller()
	lbas := v.fetchLBAs[:0]
	pairs := v.fetchPairs[:0]
	for p := first; p <= last; p++ {
		key := pagecache.Key{File: f.inode.Ino, Index: p}
		if v.cache.Contains(key) {
			dirty := v.cache.DirtyData(key)
			v.copyFromPage(f, buf, off, p, dirty, dirty != nil)
			continue
		}
		lba, err := f.inode.PageToLBA(p)
		if err != nil {
			v.fetchLBAs, v.fetchPairs = lbas, pairs
			return now, err
		}
		if !ctrl.Written(lba) {
			v.zeroFill(buf, off, p)
			continue
		}
		lbas = append(lbas, lba)
		pairs = insertPair(pairs, fetchPair{lba: lba, page: p})
	}
	v.fetchLBAs, v.fetchPairs = lbas, pairs
	if len(lbas) == 0 {
		return now, nil
	}
	idx := 0
	done, moved, err := v.blk.ReadPagesEach(now, lbas, func(lba uint64, data []byte) {
		for pairs[idx].lba < lba {
			idx++
		}
		lo, hi, bufLo, pageLo := overlap(off, len(buf), pairs[idx].page, ps)
		copy(buf[bufLo:bufLo+int(hi-lo)], data[pageLo:])
	})
	if err != nil {
		return done, err
	}
	v.io.BytesTransferred += moved
	v.io.BlockReads += uint64(len(lbas))
	return done, nil
}

// copyFromPage serves the overlap of page p with the request from a
// resident page (dirty bytes if present, oracle otherwise).
func (v *VFS) copyFromPage(f *File, buf []byte, off int64, p uint64, dirtyData []byte, dirty bool) {
	lo, hi, bufLo, pageLo := overlap(off, len(buf), p, v.fs.PageSize())
	if hi <= lo {
		return
	}
	if dirty {
		copy(buf[bufLo:bufLo+int(hi-lo)], dirtyData[pageLo:])
		return
	}
	// Clean resident page: regenerate from the device oracle (zero time).
	_ = v.fs.Peek(f.inode, lo, buf[bufLo:bufLo+int(hi-lo)])
}

func (v *VFS) zeroFill(buf []byte, off int64, p uint64) {
	lo, hi, bufLo, _ := overlap(off, len(buf), p, v.fs.PageSize())
	for i := lo; i < hi; i++ {
		buf[bufLo+int(i-lo)] = 0
	}
}

// getPageBuf returns a page-sized buffer, recycling writeback returns when
// possible. Recycled buffers keep their stale content — callers overwrite
// the whole page or zero it explicitly (see loadPageForRMW's hole path).
func (v *VFS) getPageBuf() []byte {
	if n := len(v.pageFree); n > 0 {
		b := v.pageFree[n-1]
		v.pageFree = v.pageFree[:n-1]
		return b
	}
	return make([]byte, v.fs.PageSize())
}

// putPageBuf returns a buffer no longer referenced by the cache.
func (v *VFS) putPageBuf(b []byte) {
	if len(b) == v.fs.PageSize() && len(v.pageFree) < 256 {
		v.pageFree = append(v.pageFree, b)
	}
}

// overlap computes the byte overlap of request [off, off+n) with page p:
// absolute range [lo, hi), plus the offsets into the request buffer and
// the page.
func overlap(off int64, n int, p uint64, pageSize int) (lo, hi int64, bufLo, pageLo int) {
	ps := int64(pageSize)
	pStart := int64(p) * ps
	lo, hi = off, off+int64(n)
	if pStart > lo {
		lo = pStart
	}
	if pEnd := pStart + ps; pEnd < hi {
		hi = pEnd
	}
	return lo, hi, int(lo - off), int(lo - pStart)
}
