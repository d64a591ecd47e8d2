// Package extfs is the Ext4-flavoured filesystem metadata layer: a flat
// namespace of inodes whose file pages map to device LBAs through extent
// lists, a bump block allocator, and the LBA Extractor — the paper's file
// system extension that resolves a fine-grained read's byte range straight
// to the physical pages holding it, bypassing the generic block layer
// (§3.1.2).
//
// Data movement lives elsewhere (vfs + blockdev); this package is pure
// mapping. Files are created at a fixed size, mirroring the preloaded
// datasets the paper's workloads read.
package extfs

import (
	"errors"
	"fmt"
	"sort"

	"pipette/internal/ftl"
	"pipette/internal/ssd"
)

// Extent maps a run of file pages to a run of device LBAs.
type Extent struct {
	FilePage uint64 // first file page index covered
	LBA      uint64 // device LBA backing FilePage
	Pages    uint64 // run length
}

// Inode is one file's metadata.
type Inode struct {
	Ino     uint64
	Name    string
	Size    int64
	Extents []Extent // sorted by FilePage, gapless, covering all pages
}

// Filesystem errors.
var (
	ErrExists    = errors.New("extfs: file exists")
	ErrNotFound  = errors.New("extfs: file not found")
	ErrBadRange  = errors.New("extfs: range outside file")
	ErrNoSpace   = errors.New("extfs: volume full")
	ErrBadParams = errors.New("extfs: invalid parameters")
)

// PageCount reports the number of pages the inode spans.
func (ino *Inode) PageCount(pageSize int) uint64 {
	return uint64((ino.Size + int64(pageSize) - 1) / int64(pageSize))
}

// PageToLBA resolves one file page index to its device LBA. The binary
// search is hand-rolled: this runs per page on every read path and the
// sort.Search closure costs show up in profiles.
func (ino *Inode) PageToLBA(page uint64) (uint64, error) {
	ext := ino.Extents
	lo, hi := 0, len(ext)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if page < ext[mid].FilePage+ext[mid].Pages {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(ext) || page < ext[lo].FilePage {
		return 0, fmt.Errorf("%w: page %d of %q", ErrBadRange, page, ino.Name)
	}
	return ext[lo].LBA + (page - ext[lo].FilePage), nil
}

// AppendLBAs is the LBA Extractor: it appends to dst the device LBAs of the
// pages covering the byte range [off, off+n), in file order. The fine-read
// hot path passes a reused scratch, so it allocates nothing.
func (ino *Inode) AppendLBAs(dst []uint64, off int64, n int, pageSize int) ([]uint64, error) {
	if off < 0 || n <= 0 || off+int64(n) > ino.Size {
		return dst, fmt.Errorf("%w: [%d,+%d) of %q (size %d)", ErrBadRange, off, n, ino.Name, ino.Size)
	}
	first := uint64(off) / uint64(pageSize)
	last := uint64(off+int64(n)-1) / uint64(pageSize)
	for p := first; p <= last; p++ {
		lba, err := ino.PageToLBA(p)
		if err != nil {
			return dst, err
		}
		dst = append(dst, lba)
	}
	return dst, nil
}

// CreateOpts tunes file creation.
type CreateOpts struct {
	// Preload fills the file's pages with deterministic device content at
	// zero virtual cost (the benchmark datasets). Without it, pages are
	// left unmapped until written.
	Preload bool
	// ExtentPages fragments the file into extents of at most this many
	// pages with a one-page skip between them, exercising multi-extent
	// mapping. 0 allocates one contiguous extent.
	ExtentPages uint64
}

// freeRun is one run of reusable LBAs released by Remove. The free list is
// kept sorted by LBA and coalesced, so steady-state create/remove churn
// (value-log segment rotation) reuses space instead of exhausting the bump
// frontier.
type freeRun struct {
	lba   uint64
	pages uint64
}

// FS is the filesystem metadata. Not safe for concurrent use.
type FS struct {
	ctrl     *ssd.Controller
	pageSize int

	nextLBA   uint64
	nextIno   uint64
	byName    map[string]*Inode
	byIno     map[uint64]*Inode
	free      []freeRun // sorted by lba, coalesced
	freePages uint64
}

// New formats a filesystem over a device.
func New(ctrl *ssd.Controller) *FS {
	return &FS{
		ctrl:     ctrl,
		pageSize: ctrl.PageSize(),
		nextIno:  2, // inode 1 reserved for the root, Ext4-style
		byName:   make(map[string]*Inode),
		byIno:    make(map[uint64]*Inode),
	}
}

// PageSize reports the block size.
func (fs *FS) PageSize() int { return fs.pageSize }

// Controller exposes the device (the vfs layer needs the oracle and the
// pipette core needs HMB wiring).
func (fs *FS) Controller() *ssd.Controller { return fs.ctrl }

// FreeCapacityPages reports allocatable pages: the untouched bump frontier
// plus everything on the free list.
func (fs *FS) FreeCapacityPages() uint64 {
	return fs.ctrl.LogicalPages() - fs.nextLBA + fs.freePages
}

// takeFree carves pages LBAs out of free-list run i.
func (fs *FS) takeFree(i int, pages uint64) uint64 {
	lba := fs.free[i].lba
	fs.free[i].lba += pages
	fs.free[i].pages -= pages
	if fs.free[i].pages == 0 {
		fs.free = append(fs.free[:i], fs.free[i+1:]...)
	}
	fs.freePages -= pages
	return lba
}

// allocRun allocates up to want contiguous pages: first-fit from the free
// list, then the bump frontier, then a partial cut of the largest free run.
// got == 0 means the volume is out of space.
func (fs *FS) allocRun(want uint64) (lba, got uint64, bumped bool) {
	for i := range fs.free {
		if fs.free[i].pages >= want {
			return fs.takeFree(i, want), want, false
		}
	}
	if rem := fs.ctrl.LogicalPages() - fs.nextLBA; rem >= want {
		lba = fs.nextLBA
		fs.nextLBA += want
		return lba, want, true
	}
	best := -1
	for i := range fs.free {
		if best < 0 || fs.free[i].pages > fs.free[best].pages {
			best = i
		}
	}
	if best >= 0 {
		got = fs.free[best].pages
		return fs.takeFree(best, got), got, false
	}
	if rem := fs.ctrl.LogicalPages() - fs.nextLBA; rem > 0 {
		got = rem
		if got > want {
			got = want
		}
		lba = fs.nextLBA
		fs.nextLBA += got
		return lba, got, true
	}
	return 0, 0, false
}

// releaseRun returns a run of LBAs to the free list, inserting in sorted
// position and coalescing with its neighbours.
func (fs *FS) releaseRun(lba, pages uint64) {
	if pages == 0 {
		return
	}
	i := sort.Search(len(fs.free), func(i int) bool { return fs.free[i].lba >= lba })
	fs.free = append(fs.free, freeRun{})
	copy(fs.free[i+1:], fs.free[i:])
	fs.free[i] = freeRun{lba: lba, pages: pages}
	fs.freePages += pages
	if i+1 < len(fs.free) && fs.free[i].lba+fs.free[i].pages == fs.free[i+1].lba {
		fs.free[i].pages += fs.free[i+1].pages
		fs.free = append(fs.free[:i+1], fs.free[i+2:]...)
	}
	if i > 0 && fs.free[i-1].lba+fs.free[i-1].pages == fs.free[i].lba {
		fs.free[i-1].pages += fs.free[i].pages
		fs.free = append(fs.free[:i], fs.free[i+1:]...)
	}
}

// releaseExtents rolls an inode's allocation back onto the free list.
func (fs *FS) releaseExtents(extents []Extent) {
	for _, e := range extents {
		fs.releaseRun(e.LBA, e.Pages)
	}
}

// Create makes a fixed-size file.
func (fs *FS) Create(name string, size int64, opts CreateOpts) (*Inode, error) {
	if name == "" || size < 0 {
		return nil, ErrBadParams
	}
	if _, dup := fs.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	pages := uint64((size + int64(fs.pageSize) - 1) / int64(fs.pageSize))
	if pages > fs.FreeCapacityPages() {
		return nil, fmt.Errorf("%w: need %d pages, %d free", ErrNoSpace,
			pages, fs.FreeCapacityPages())
	}

	ino := &Inode{Ino: fs.nextIno, Name: name, Size: size}
	fs.nextIno++

	chunk := opts.ExtentPages
	if chunk == 0 || chunk > pages {
		chunk = pages
	}
	for covered := uint64(0); covered < pages; {
		want := chunk
		if covered+want > pages {
			want = pages - covered
		}
		lba, got, bumped := fs.allocRun(want)
		if got == 0 {
			// Fragmentation skips can eat past the capacity pre-check.
			fs.releaseExtents(ino.Extents)
			return nil, fmt.Errorf("%w: need %d pages, %d free", ErrNoSpace,
				pages-covered, fs.FreeCapacityPages())
		}
		ino.Extents = append(ino.Extents, Extent{FilePage: covered, LBA: lba, Pages: got})
		covered += got
		if covered < pages && opts.ExtentPages != 0 && bumped && fs.nextLBA < fs.ctrl.LogicalPages() {
			// Skip one LBA to force fragmentation (bump allocations only:
			// free-list reuse is naturally discontiguous). The bound keeps
			// nextLBA on the device — past it, LogicalPages()-nextLBA would
			// underflow and the frontier would hand out nonexistent LBAs.
			fs.nextLBA++
		}
	}
	if pages == 0 {
		ino.Extents = nil
	}

	if opts.Preload {
		for _, e := range ino.Extents {
			for i := uint64(0); i < e.Pages; i++ {
				if err := fs.ctrl.FTL().Preload(ftl.LBA(e.LBA + i)); err != nil {
					terr := fs.trimExtents(ino.Extents)
					fs.releaseExtents(ino.Extents)
					return nil, errors.Join(fmt.Errorf("extfs: preload %q: %w", name, err), terr)
				}
			}
		}
	}

	fs.byName[name] = ino
	fs.byIno[ino.Ino] = ino
	return ino, nil
}

// trimExtents trims every LBA of the extent list on the controller, which
// drops any copy of the page held in its write buffer as well as the
// mapping. Trimming an unmapped LBA succeeds; the one error is
// ftl.ErrBadLBA, for an LBA beyond the device's exported capacity.
func (fs *FS) trimExtents(extents []Extent) error {
	for _, e := range extents {
		for i := uint64(0); i < e.Pages; i++ {
			if err := fs.ctrl.Trim(e.LBA + i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*Inode, error) {
	ino, ok := fs.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ino, nil
}

// InodeByID finds a file by inode number.
func (fs *FS) InodeByID(ino uint64) (*Inode, error) {
	n, ok := fs.byIno[ino]
	if !ok {
		return nil, fmt.Errorf("%w: ino %d", ErrNotFound, ino)
	}
	return n, nil
}

// Remove deletes a file, trims its LBAs on the device, and returns them to
// the free list for reuse.
func (fs *FS) Remove(name string) error {
	ino, ok := fs.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := fs.trimExtents(ino.Extents); err != nil {
		return fmt.Errorf("extfs: trim %q: %w", name, err)
	}
	fs.releaseExtents(ino.Extents)
	delete(fs.byName, name)
	delete(fs.byIno, ino.Ino)
	return nil
}

// Files lists all file names (sorted order not guaranteed).
func (fs *FS) Files() []string {
	out := make([]string, 0, len(fs.byName))
	for name := range fs.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Peek reads file bytes through the zero-time oracle: [off, off+len(buf))
// of the file's *device* content (not the page cache). A hole, a page the
// device holds no data for, reads as zeros, as a timed read returns it.
// Used to serve clean page-cache hits and to verify reads.
func (fs *FS) Peek(ino *Inode, off int64, buf []byte) error {
	if off < 0 || off+int64(len(buf)) > ino.Size {
		return fmt.Errorf("%w: peek [%d,+%d) of %q", ErrBadRange, off, len(buf), ino.Name)
	}
	ps := int64(fs.pageSize)
	for n := 0; n < len(buf); {
		abs := off + int64(n)
		page := uint64(abs / ps)
		inPage := int(abs % ps)
		chunk := fs.pageSize - inPage
		if rem := len(buf) - n; chunk > rem {
			chunk = rem
		}
		lba, err := ino.PageToLBA(page)
		if err != nil {
			return err
		}
		if err := fs.ctrl.PeekLBA(lba, inPage, buf[n:n+chunk]); err != nil {
			if !errors.Is(err, ftl.ErrUnmapped) {
				return err
			}
			clear(buf[n : n+chunk])
		}
		n += chunk
	}
	return nil
}

// CheckExtents validates an inode's extent list: sorted, gapless coverage
// of exactly PageCount pages, no overlaps. Property tests use it.
func (ino *Inode) CheckExtents(pageSize int) error {
	want := ino.PageCount(pageSize)
	var covered uint64
	for i, e := range ino.Extents {
		if e.FilePage != covered {
			return fmt.Errorf("extent %d starts at page %d, want %d", i, e.FilePage, covered)
		}
		if e.Pages == 0 {
			return fmt.Errorf("extent %d empty", i)
		}
		covered += e.Pages
	}
	if covered != want {
		return fmt.Errorf("extents cover %d pages, want %d", covered, want)
	}
	return nil
}
