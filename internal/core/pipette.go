package core

import (
	"container/list"
	"errors"
	"fmt"

	"pipette/internal/fault"
	"pipette/internal/hmb"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/slab"
	"pipette/internal/ssd"
	"pipette/internal/telemetry"
	"pipette/internal/vfs"
)

// Pipette is the fine-grained read framework. It implements vfs.FineRouter.
// ResHostCache is the blame label for time served from the host-side
// fine-read cache (and the page cache above it) without touching the device.
const ResHostCache = "host.cache"

// Not safe for concurrent use (the simulation is single-threaded; see
// Runner for the wall-clock maintenance thread used outside simulation).
type Pipette struct {
	cfg      Config
	v        *vfs.VFS
	drv      *nvme.Driver
	ctrl     *ssd.Controller
	region   *hmb.Region
	alloc    *slab.Allocator
	pageSize int

	tables    map[uint64]*fileTable
	lastTbl   *fileTable // memo: fine reads hammer one file at a time
	entries   entryArena
	owners    []*entry   // slab slot -> the stateSlab entry its item holds; grown on demand
	overflow  *list.List // FIFO of *entry in stateOverflow
	overBytes int

	lbaScratch []uint64 // Constructor scratch; safe to reuse, Submit is synchronous

	threshold  uint32
	winAccess  uint64
	winReuse   uint64
	sinceMaint uint64

	evictSnap   []uint64
	staleStages []int

	basePCPages int
	fg          metrics.Cache
	io          metrics.IO
	rng         *sim.RNG
	stats       Stats
	tr          telemetry.Tracer
	sa          *telemetry.StageAccount

	// Fault handling: with an injector armed the host validates fine-read
	// payloads and re-serves corrupted requests through the block path.
	inj       *fault.Injector
	fltRingFB telemetry.Counter
	fltDMAFB  telemetry.Counter

	cacheDisabled bool
}

// errFineFallback signals that the fine path detected corruption (a
// rejected Info-Area record or a DMA payload checksum mismatch) and the
// read must be re-served through the block path. TryFineRead translates it
// into "not handled", so the VFS's ordinary block fallback serves the
// request — slower, never wrong.
var errFineFallback = errors.New("core: fine path fell back")

var _ vfs.FineRouter = (*Pipette)(nil)

// New assembles the framework over an existing VFS and its device driver:
// it allocates the HMB region, performs the HMB handshake with the
// controller, builds the Data Area slab allocator, and installs itself as
// the VFS's fine router.
func New(v *vfs.VFS, drv *nvme.Driver, cfg Config) (*Pipette, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HMB.TempSlot < cfg.FineMaxBytes {
		return nil, fmt.Errorf("core: TempSlot %d < FineMaxBytes %d", cfg.HMB.TempSlot, cfg.FineMaxBytes)
	}
	region, err := hmb.New(cfg.HMB)
	if err != nil {
		return nil, err
	}
	alloc, err := slab.New(slab.Config{
		ArenaSize: cfg.HMB.DataBytes,
		SlabSize:  cfg.SlabSize,
		ItemSizes: cfg.ItemSizes,
	})
	if err != nil {
		return nil, err
	}
	ctrl := v.FS().Controller()
	ctrl.EnableHMB(region)
	p := &Pipette{
		cfg:         cfg,
		v:           v,
		drv:         drv,
		ctrl:        ctrl,
		region:      region,
		alloc:       alloc,
		pageSize:    v.FS().PageSize(),
		tables:      make(map[uint64]*fileTable),
		overflow:    list.New(),
		threshold:   cfg.InitialThreshold,
		evictSnap:   make([]uint64, alloc.Classes()),
		staleStages: make([]int, alloc.Classes()),
		basePCPages: v.PageCache().Capacity(),
		rng:         sim.NewRNG(cfg.Seed),
		tr:          telemetry.Nop(),
	}
	v.SetRouter(p)
	return p, nil
}

// DisableCache switches the framework into the paper's "Pipette w/o cache"
// configuration: the byte-granular path stays, every read bounces through
// the TempBuf, nothing is admitted.
func (p *Pipette) DisableCache() { p.cacheDisabled = true }

// Threshold reports the current adaptive admission threshold.
func (p *Pipette) Threshold() uint32 { return p.threshold }

// OverflowBytes reports bytes resident in the overflow FIFO.
func (p *Pipette) OverflowBytes() int { return p.overBytes }

// SetTracer installs a tracer on the fine-grained read path.
func (p *Pipette) SetTracer(tr telemetry.Tracer) { p.tr = telemetry.OrNop(tr) }

// SetStages installs the per-request stage account; the framework
// attributes fine-cache hits, constructor work, and fallback waste.
func (p *Pipette) SetStages(sa *telemetry.StageAccount) { p.sa = sa }

// SetInjector arms the host side of fault handling: Info-Area records may
// corrupt in shared memory (the ring seals and verifies them), and fine-read
// DMA payloads are validated against the device's checksum. Wire the same
// injector into the controller (ssd.Controller.SetInjector) so both ends
// agree on when validation runs.
func (p *Pipette) SetInjector(inj *fault.Injector) {
	p.inj = inj
	p.region.Info().SetInjector(inj)
}

// RingFallbacks reports fine reads re-served via block I/O after the device
// rejected a corrupted Info-Area record.
func (p *Pipette) RingFallbacks() uint64 { return p.fltRingFB.Load() }

// DMAFallbacks reports fine reads re-served via block I/O after host-side
// payload validation caught in-flight DMA corruption.
func (p *Pipette) DMAFallbacks() uint64 { return p.fltDMAFB.Load() }

// Stats returns a copy of the framework counters.
func (p *Pipette) Stats() Stats { return p.stats }

// CacheStats returns the fine-grained read cache hit counters.
func (p *Pipette) CacheStats() metrics.Cache { return p.fg }

// IO returns fine-path traffic accounting (merged with the VFS's block
// traffic by the benchmark engines).
func (p *Pipette) IO() metrics.IO { return p.io }

// MemoryBytes reports resident fine-cache memory: arena slabs in use plus
// the overflow region — the paper's Table 4 metric.
func (p *Pipette) MemoryBytes() uint64 {
	return uint64(p.alloc.UsedBytes()) + uint64(p.overBytes)
}

// Region exposes the HMB region (tests and the ablation benches peek).
func (p *Pipette) Region() *hmb.Region { return p.region }

// Allocator exposes the Data Area allocator (telemetry).
func (p *Pipette) Allocator() *slab.Allocator { return p.alloc }

func (p *Pipette) table(ino uint64) *fileTable {
	if p.lastTbl != nil && p.lastTbl.ino == ino {
		return p.lastTbl
	}
	t, ok := p.tables[ino]
	if !ok {
		// The per-file lookup table is created on the file's first
		// fine-grained read (§3.1.2).
		t = newFileTable(ino, p.pageSize)
		p.tables[ino] = t
	}
	p.lastTbl = t
	return t
}

// TryFineRead implements the fine-grained read path of §3.1.2: Detector ->
// Dispatcher -> cache lookup -> (on miss) Constructor + Requester -> Read
// Engine. The VFS has already tried the page cache.
func (p *Pipette) TryFineRead(now sim.Time, f *vfs.File, off int64, buf []byte) (sim.Time, bool, error) {
	n := len(buf)
	// Dispatcher: large reads take the conventional block path.
	if n > p.cfg.FineMaxBytes {
		p.stats.Declined++
		return now, false, nil
	}
	p.stats.FineReads++

	if p.cacheDisabled {
		done, err := p.fetchFine(now, f, off, buf, -1)
		if err != nil {
			if errors.Is(err, errFineFallback) {
				return p.fallBack(now, done), false, nil
			}
			return done, false, err
		}
		p.stats.TempBypasses++
		return done, true, nil
	}

	// Detector: record the access range (ghost entries give the adaptive
	// mechanism reference counts for data that is not cached yet).
	tbl := p.table(f.Inode().Ino)
	key := rangeKey{off: off, n: int32(n)}
	p.winAccess++
	p.sinceMaint++
	exact, covering := tbl.find(off, n)
	seenExact := exact != nil
	if seenExact || covering != nil {
		p.winReuse++
	}

	if covering != nil {
		// Cache hit.
		p.fg.Record(true)
		covering.e.refCount++
		p.serveFrom(covering, off, buf)
		p.afterAccess()
		if p.tr.Enabled() {
			p.tr.Span(telemetry.TrackFine, "hit", now, now+p.cfg.HitService)
		}
		p.sa.MarkRes(telemetry.StageCache, now+p.cfg.HitService, ResHostCache)
		return now + p.cfg.HitService, true, nil
	}
	p.fg.Record(false)

	if !seenExact {
		exact = p.entries.alloc()
		exact.key, exact.state, exact.table = key, stateGhost, tbl
		tbl.index(exact)
	}
	exact.refCount++

	// Adaptive admission: cache once the reference count reaches the
	// threshold; below it, the TempBuf keeps cold data out of the arena.
	dest := -1
	var ref slab.Ref
	admitted := false
	if exact.refCount >= p.threshold {
		if r, ok := p.allocItem(n); ok {
			ref, dest, admitted = r, r.Off, true
		}
	}

	done, err := p.fetchFine(now, f, off, buf, dest)
	if err != nil {
		if admitted {
			_ = p.alloc.Release(ref)
		}
		if errors.Is(err, errFineFallback) {
			return p.fallBack(now, done), false, nil
		}
		return done, false, err
	}

	if admitted {
		p.own(ref, exact)
		p.fg.Insertions++
		p.stats.Admissions++
	} else {
		p.stats.TempBypasses++
		p.fg.Bypasses++
	}
	p.afterAccess()
	return done, true, nil
}

// fetchFine is the Constructor + Requester: extract the page LBAs (the
// filesystem extension bypassing the block layer), reserve the HMB
// destination, append the Info Area record, and submit the reconstructed
// vendor command. dest < 0 means "use the TempBuf". The demanded bytes are
// copied into buf from the DMA destination.
func (p *Pipette) fetchFine(now sim.Time, f *vfs.File, off int64, buf []byte, dest int) (sim.Time, error) {
	// The fine command reads LBAs directly, below the page cache: any dirty
	// page evicted since the last drain — including by this very request's
	// admission rebalancing a moment ago — must land on flash first, or the
	// fetch returns (and the cache admits) pre-writeback content.
	if _, err := p.v.FlushPendingWriteback(now); err != nil {
		return now, err
	}
	n := len(buf)
	lbas, err := f.Inode().AppendLBAs(p.lbaScratch[:0], off, n, p.pageSize)
	p.lbaScratch = lbas[:0]
	if err != nil {
		return now, err
	}
	if dest < 0 {
		d, err := p.region.AllocTemp(n)
		if err != nil {
			return now, err
		}
		dest = d
	}
	rec := hmb.InfoRecord{
		LBA:     lbas[0],
		ByteOff: int(off % int64(p.pageSize)),
		ByteLen: n,
		Dest:    dest,
	}
	if err := p.region.Info().Push(rec); err != nil {
		return now, fmt.Errorf("core: info ring: %w", err)
	}
	issueAt := now + p.cfg.MissHostOverhead
	p.sa.Mark(telemetry.StageConstruct, issueAt)
	comp, err := p.drv.Submit(issueAt, nvme.Command{
		Op:       nvme.OpFineRead,
		FineLBAs: lbas,
	})
	if err != nil {
		return now, fmt.Errorf("core: fine read submit: %w", err)
	}
	if !comp.Ok() {
		if comp.Status == nvme.StatusCorruptRing {
			p.fltRingFB.Inc()
			return comp.Done, errFineFallback
		}
		return comp.Done, fmt.Errorf("core: fine read failed: %w", comp.Status.Err())
	}
	p.io.FineReads++
	p.io.BytesTransferred += comp.BytesMoved
	if err := p.region.ReadAt(dest, buf); err != nil {
		return comp.Done, err
	}
	if p.inj.Enabled() && fault.Sum32(buf) != comp.PayloadSum {
		// In-flight DMA corruption: the landed bytes disagree with the
		// device's pre-transfer checksum. Discard and fall back.
		p.fltDMAFB.Inc()
		return comp.Done, errFineFallback
	}
	if p.tr.Enabled() {
		// Constructor + Requester host work before the command hits the wire.
		p.tr.Span(telemetry.TrackFine, "construct", now, now+p.cfg.MissHostOverhead)
	}
	return comp.Done, nil
}

// fallBack accounts a failed fine attempt whose time must still be charged:
// the VFS resumes its block path at the returned timestamp. The attempt's
// construct/ring/firmware/NAND/DMA time is wasted work, so everything
// attributed since the attempt began is re-labeled as retry — the
// conservation sum still holds while the waterfall shows the fallback cost.
func (p *Pipette) fallBack(now, done sim.Time) sim.Time {
	p.sa.Reattribute(now, telemetry.StageRetry)
	p.sa.Mark(telemetry.StageRetry, done)
	if p.tr.Enabled() {
		p.tr.Span(telemetry.TrackFine, "fault.fallback", now, done)
	}
	return done
}

// serveFrom copies the demanded window out of a cached entry, given by its
// page item, and maintains recency.
func (p *Pipette) serveFrom(it *pageItem, off int64, buf []byte) {
	delta := int(off - it.off)
	if it.slabOff >= 0 {
		_ = p.region.ReadAt(int(it.slabOff)+delta, buf)
		_ = p.alloc.Touch(slab.Ref{Off: int(it.slabOff), Class: it.e.slabCls})
		return
	}
	copy(buf, it.e.data[delta:])
	p.repromote(it.e)
}

// repromote moves an overflow entry back into the arena when a free item
// is available without displacing anyone (TryAlloc only: repromotion must
// never trigger migration, or it could thrash).
func (p *Pipette) repromote(e *entry) {
	cls, ok := p.alloc.ClassFor(int(e.key.n))
	if !ok {
		return
	}
	ref, ok := p.alloc.TryAlloc(cls)
	if !ok {
		return
	}
	dst, err := p.region.Slice(ref.Off, int(e.key.n))
	if err != nil {
		_ = p.alloc.Release(ref)
		return
	}
	copy(dst, e.data)
	p.removeOverflow(e)
	p.own(ref, e)
	p.stats.Repromotions++
	p.syncBudget()
}

// OnWrite implements the consistency rule of §3.1.3: every write deletes
// the overlapping fine-cache items, so subsequent fine reads see either the
// updated page cache or the flushed flash content.
func (p *Pipette) OnWrite(ino uint64, off int64, n int) {
	tbl, ok := p.tables[ino]
	if !ok {
		return
	}
	for _, e := range tbl.overlapping(off, n) {
		p.deleteEntry(e)
		p.stats.Invalidations++
	}
	p.syncBudget()
}

// deleteEntry removes an entry entirely, releasing whatever backs it.
func (p *Pipette) deleteEntry(e *entry) {
	switch e.state {
	case stateSlab:
		ref := slab.Ref{Off: e.slabOff, Class: e.slabCls}
		p.disown(ref.Off, stateGhost)
		_ = p.alloc.Release(ref)
	case stateOverflow:
		p.removeOverflow(e)
	}
	e.table.unindex(e)
	p.entries.release(e)
}

func (p *Pipette) removeOverflow(e *entry) {
	if e.overElem != nil {
		p.overflow.Remove(e.overElem)
		e.overElem = nil
	}
	p.overBytes -= len(e.data)
	e.data = nil
}

// own puts e in stateSlab, the owner of the slab item ref.
func (p *Pipette) own(ref slab.Ref, e *entry) {
	s := p.alloc.Slot(ref.Off)
	if s >= len(p.owners) {
		grown := make([]*entry, min(max(s+1, 2*len(p.owners)), p.alloc.Slots()))
		copy(grown, p.owners)
		p.owners = grown
	}
	p.owners[s] = e
	e.state, e.slabOff, e.slabCls = stateSlab, ref.Off, ref.Class
	e.table.mirror(e, int32(ref.Off))
}

// disown moves the owner of the slab item at off, if any, out of the slab
// into state st, and returns it.
func (p *Pipette) disown(off int, st entryState) *entry {
	s := p.alloc.Slot(off)
	if s >= len(p.owners) || p.owners[s] == nil {
		return nil
	}
	e := p.owners[s]
	p.owners[s] = nil
	e.state, e.slabOff, e.slabCls = st, 0, 0
	e.table.mirror(e, -1)
	return e
}
