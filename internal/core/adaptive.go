package core

import "pipette/internal/slab"

// This file holds the three adaptive policies of §3.2: threshold
// adaptation (§3.2.2), slab reassignment (§3.2.3), and the dynamic
// allocation strategy (§3.2.4).

// afterAccess runs the periodic policy work owed after each fine access.
func (p *Pipette) afterAccess() {
	if p.winAccess >= p.cfg.AdaptWindow {
		p.adaptThreshold()
	}
	if p.sinceMaint >= p.cfg.MaintenanceEvery {
		p.sinceMaint = 0
		p.MaintenanceTick()
	}
}

// adaptThreshold closes one adaptation window (§3.2.2): the reuse ratio —
// repeated fine accesses over all fine accesses — drives the admission
// threshold. Low reuse raises the threshold (cache less; cold data would
// only pollute the arena); high reuse lowers it (promote eagerly).
func (p *Pipette) adaptThreshold() {
	ratio := float64(p.winReuse) / float64(p.winAccess)
	switch {
	case ratio < p.cfg.MinReuseRatio && p.threshold < p.cfg.MaxThreshold:
		p.threshold++
		p.stats.ThresholdUps++
	case ratio > p.cfg.MaxReuseRatio && p.threshold > p.cfg.MinThreshold:
		p.threshold--
		p.stats.ThresholdDown++
	}
	p.winAccess, p.winReuse = 0, 0
}

// allocItem obtains a Data Area item for n bytes, applying the dynamic
// allocation strategy when the arena is exhausted.
func (p *Pipette) allocItem(n int) (slab.Ref, bool) {
	cls, ok := p.alloc.ClassFor(n)
	if !ok {
		return slab.Ref{}, false
	}
	if ref, ok := p.alloc.TryAlloc(cls); ok {
		return ref, true
	}
	if !p.makeRoom(cls) {
		return slab.Ref{}, false
	}
	return p.alloc.TryAlloc(cls)
}

// makeRoom implements §3.2.4: compare the two caches' hit ratios. If the
// fine cache is winning, prefer solution 2 (migrate a random donor class's
// slab out of the arena, effectively growing the fine cache at the page
// cache's expense); otherwise solution 1 (evict the class's LRU item).
func (p *Pipette) makeRoom(cls int) bool {
	fineWins := p.fg.HitRatio() >= p.v.PageCache().HitRatio()
	if fineWins && p.migrateFrom(cls) {
		return true
	}
	if ref, ok := p.alloc.EvictLRU(cls); ok {
		p.stats.Evictions++
		p.fg.Evictions++
		// Keep the ghost: its reference count survives so a re-read
		// re-admits without starting from zero.
		p.disown(ref.Off, stateGhost)
		return true
	}
	// The class owns no evictable item (it has no slab yet): migration is
	// the only option regardless of the ratio comparison.
	return p.migrateFrom(cls)
}

// migrateFrom performs solution 2 of §3.2.1: pick a random donor class with
// more than one slab, detach its emptiest slab, and move the live items to
// memory outside the fine-grained read cache arena. The freed slab returns
// to the pool for the requesting class. The shared-memory budget shifts:
// the page cache shrinks by the bytes now held in overflow.
func (p *Pipette) migrateFrom(exclude int) bool {
	if p.overBytes+p.cfg.SlabSize > p.cfg.OverflowMaxBytes {
		return false
	}
	// The page cache may not shrink below its floor.
	wantPC := p.basePCPages - (p.overBytes+p.cfg.SlabSize+p.pageSize-1)/p.pageSize
	if wantPC < p.cfg.PageCacheFloorPages {
		return false
	}
	donor, ok := p.alloc.DonorClass(p.rng.Uint64(), exclude)
	if !ok {
		return false
	}
	if !p.detachToOverflow(donor) {
		return false
	}
	p.stats.Migrations++
	p.syncBudget()
	p.trimOverflow()
	return true
}

// detachToOverflow moves one victim slab of a class out of the arena,
// relocating its live items to overflow memory and recording the before/
// after locations (the entry's slab offset becomes an overflow buffer).
func (p *Pipette) detachToOverflow(cls int) bool {
	victim, ok := p.alloc.VictimSlab(cls)
	if !ok {
		return false
	}
	refs, err := p.alloc.DetachSlab(cls, victim)
	if err != nil {
		return false
	}
	for _, ref := range refs {
		e := p.disown(ref.Off, stateOverflow)
		if e == nil {
			continue
		}
		data := make([]byte, e.key.n)
		_ = p.region.ReadAt(ref.Off, data)
		e.data = data
		e.overElem = p.overflow.PushBack(e)
		p.overBytes += len(data)
	}
	return true
}

// trimOverflow enforces the overflow bound by dropping the oldest migrated
// items (they decay to ghosts, keeping their reference counts).
func (p *Pipette) trimOverflow() {
	for p.overBytes > p.cfg.OverflowMaxBytes && p.overflow.Len() > 0 {
		e := p.overflow.Front().Value.(*entry)
		p.removeOverflow(e)
		e.state = stateGhost
		p.stats.OverflowDrops++
	}
	p.syncBudget()
}

// syncBudget rebalances the shared memory budget: every byte held in
// overflow is debited from the page cache's capacity, floored.
func (p *Pipette) syncBudget() {
	want := p.basePCPages - (p.overBytes+p.pageSize-1)/p.pageSize
	if want < p.cfg.PageCacheFloorPages {
		want = p.cfg.PageCacheFloorPages
	}
	if want != p.v.PageCache().Capacity() {
		_ = p.v.PageCache().Resize(want)
	}
}

// MaintenanceTick runs one stage of the §3.2.3 maintenance thread: a class
// whose eviction count has not moved for ReassignStages stages while
// holding more than one slab is not under pressure; its emptiest slab is
// reassigned — live data moves to spare memory and the slab returns to the
// free pool for classes that need it. In simulation the tick is driven
// deterministically (every MaintenanceEvery accesses); Runner drives it
// from a real goroutine for live use.
func (p *Pipette) MaintenanceTick() {
	for cls := 0; cls < p.alloc.Classes(); cls++ {
		ev := p.alloc.Evictions(cls)
		if ev == p.evictSnap[cls] && p.alloc.SlabCount(cls) > 1 {
			p.staleStages[cls]++
		} else {
			p.staleStages[cls] = 0
		}
		p.evictSnap[cls] = ev
		if p.staleStages[cls] >= p.cfg.ReassignStages {
			if p.detachToOverflow(cls) {
				p.stats.Reassignments++
				p.trimOverflow()
			}
			p.staleStages[cls] = 0
		}
	}
}
