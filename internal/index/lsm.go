package index

import (
	"fmt"
	"sort"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// LSM engine: an in-memory memtable over immutable sorted runs on the
// store's filesystem. Inserts and deletes are blind memtable writes; a full
// memtable flushes to a level-0 run, and Tick merges a level that exceeds
// its fanout into the next one — write-optimized, at the price of reads
// that must consult every run that might hold the key. Two structures pay
// that read-amp down: a per-run bloom filter (sized by bits/key) prunes
// runs without touching the device, and a small block cache holds hot index
// blocks. What remains — the bloom false positives and cold block probes —
// is a stream of sub-page reads (BlockBytes, default 512 B): the
// fine-grained path transfers exactly a block where the block-granular
// stack pays a full page, which is the negative-lookup experiment.
//
// Runs use the value-log record format (see record.go), sorted by key and
// packed into BlockBytes blocks a record never straddles; the first key of
// each block is kept in memory as its fence pointer. Newer data shadows
// older: the memtable first, then runs by level (ascending) and, within a
// level, by sequence number (descending).

// run is one immutable sorted run file.
type run struct {
	level   int
	seq     uint64 // global allocation order; bigger = newer data
	name    string
	r       File
	size    int64 // data bytes including block padding
	blocks  int
	fences  []string // first key of each block
	filter  *bloom
	entries int
}

type lsmEngine struct {
	be  Backend
	cfg Config
	tr  telemetry.Tracer

	mem     *skipList
	runs    []*run // level asc, seq desc within level: recency order for reads
	nextSeq uint64
	cache   *blockCache

	stats    Stats
	buildBuf []byte
}

func newLSM(be Backend, cfg Config) *lsmEngine {
	return &lsmEngine{
		be:    be,
		cfg:   cfg,
		tr:    cfg.Tracer,
		mem:   newSkipList(0x5eed),
		cache: newBlockCache(cfg.BlockCacheBlocks),
	}
}

func (e *lsmEngine) Kind() Kind { return LSM }

func (e *lsmEngine) Stats() Stats {
	s := e.stats
	s.Runs = len(e.runs)
	return s
}

// ---- writes ----

func (e *lsmEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	if recSize(len(key)) > e.cfg.BlockBytes {
		return now, fmt.Errorf("index: key of %d bytes does not fit a %d B lsm block", len(key), e.cfg.BlockBytes)
	}
	e.stats.Inserts++
	e.mem.set(key, l, false)
	return e.maybeFlush(now)
}

func (e *lsmEngine) Delete(now sim.Time, key string) (sim.Time, error) {
	e.stats.Deletes++
	e.mem.set(key, Loc{}, true)
	return e.maybeFlush(now)
}

func (e *lsmEngine) maybeFlush(now sim.Time) (sim.Time, error) {
	if e.mem.len() < e.cfg.MemtableEntries {
		return now, nil
	}
	return e.flush(now)
}

// flush writes the memtable out as a new level-0 run.
func (e *lsmEngine) flush(now sim.Time) (sim.Time, error) {
	if e.mem.len() == 0 {
		return now, nil
	}
	n := e.mem.first()
	next := func(now sim.Time) (sim.Time, string, Loc, bool, bool) {
		if n == nil {
			return now, "", Loc{}, false, false
		}
		k, l, t := n.key, n.loc, n.tombstone
		n = n.next[0]
		return now, k, l, t, true
	}
	now, _, err := e.buildRun(now, 0, e.mem.len(), next)
	if err != nil {
		return now, err
	}
	e.stats.Flushes++
	e.mem = newSkipList(0x5eed ^ e.nextSeq)
	return now, nil
}

// buildRun materializes a sorted record stream into a run file at level,
// building its fences and bloom filter along the way. The write is one
// timed sequential append — the LSM's characteristic I/O shape.
func (e *lsmEngine) buildRun(now sim.Time, level, count int, next func(sim.Time) (sim.Time, string, Loc, bool, bool)) (sim.Time, *run, error) {
	bb := e.cfg.BlockBytes
	buf := e.buildBuf[:0]
	filter := newBloom(count, e.cfg.BloomBitsPerKey)
	var fences []string
	entries := 0
	for {
		var key string
		var l Loc
		var tomb, ok bool
		now, key, l, tomb, ok = next(now)
		if !ok {
			break
		}
		sz := recSize(len(key))
		if rem := len(buf) % bb; rem != 0 && rem+sz > bb {
			// Pad to the next block boundary; records never straddle blocks.
			for i := rem; i < bb; i++ {
				buf = append(buf, 0)
			}
		}
		if len(buf)%bb == 0 {
			fences = append(fences, key)
		}
		buf = appendRunRecord(buf, key, l, tomb)
		filter.add(key)
		entries++
	}
	e.buildBuf = buf[:0]
	if entries == 0 {
		return now, nil, nil
	}

	seq := e.nextSeq
	e.nextSeq++
	name := fmt.Sprintf("%slsm-L%d-%08d", e.cfg.NamePrefix, level, seq)
	w, err := e.be.Create(name, int64(len(buf)))
	if err != nil {
		return now, nil, fmt.Errorf("index: create run %s: %w", name, err)
	}
	wrote, done, err := w.WriteAt(now, buf, 0)
	if err != nil {
		return done, nil, fmt.Errorf("index: write run %s: %w", name, err)
	}
	now = done
	if wrote != len(buf) {
		return now, nil, fmt.Errorf("index: run %s: short write %d of %d", name, wrote, len(buf))
	}
	if now, err = w.Sync(now); err != nil {
		return now, nil, err
	}
	if err := w.Close(); err != nil {
		return now, nil, err
	}
	r, err := e.be.OpenReader(name, e.cfg.Fine)
	if err != nil {
		return now, nil, fmt.Errorf("index: open run %s: %w", name, err)
	}
	e.stats.BytesWritten += uint64(len(buf))
	rn := &run{
		level:   level,
		seq:     seq,
		name:    name,
		r:       r,
		size:    int64(len(buf)),
		blocks:  (len(buf) + bb - 1) / bb,
		fences:  fences,
		filter:  filter,
		entries: entries,
	}
	e.runs = append(e.runs, rn)
	e.sortRuns()
	return now, rn, nil
}

// sortRuns keeps the read order: level ascending, newest first per level.
func (e *lsmEngine) sortRuns() {
	sort.Slice(e.runs, func(i, j int) bool {
		if e.runs[i].level != e.runs[j].level {
			return e.runs[i].level < e.runs[j].level
		}
		return e.runs[i].seq > e.runs[j].seq
	})
}

// ---- block reads ----

// readBlock fetches one run block, via the block cache when forLookup.
// Sequential consumers (merges, scans) bypass the cache so streaming a
// level does not evict the hot lookup blocks.
func (e *lsmEngine) readBlock(now sim.Time, r *run, blk int, forLookup bool) ([]byte, sim.Time, error) {
	key := blockCacheKey{seq: r.seq, blk: blk}
	if forLookup {
		if data, ok := e.cache.get(key); ok {
			e.stats.CacheHits++
			if e.tr.Enabled() {
				e.tr.Instant(telemetry.TrackIndex, "index.lsm.block_cache", now)
			}
			return data, now, nil
		}
		e.stats.CacheMisses++
	}
	bb := int64(e.cfg.BlockBytes)
	off := int64(blk) * bb
	n := bb
	if off+n > r.size {
		n = r.size - off
	}
	buf := make([]byte, n)
	start := now
	got, done, err := r.r.ReadAt(now, buf, off)
	if err != nil {
		return nil, done, fmt.Errorf("index: run %s block %d: %w", r.name, blk, err)
	}
	now = done
	if got != int(n) {
		return nil, now, fmt.Errorf("index: run %s block %d: short read %d", r.name, blk, got)
	}
	e.stats.BytesRead += uint64(n)
	if e.tr.Enabled() {
		e.tr.Span(telemetry.TrackIndex, "index.lsm.block_read", start, now)
	}
	if forLookup {
		e.cache.put(key, buf)
	}
	return buf, now, nil
}

// ---- lookup ----

// searchBlock scans one block's records for key.
func searchBlock(block []byte, key string) (Loc, bool, bool) {
	for off := 0; off < len(block); {
		k, l, tomb, sz, ok := parseRunRecord(block[off:])
		if !ok {
			break // block padding: no further records here
		}
		// string(k) in a comparison does not allocate.
		if string(k) == key {
			return l, tomb, true
		}
		if string(k) > key {
			break
		}
		off += sz
	}
	return Loc{}, false, false
}

func (e *lsmEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	e.stats.Lookups++
	if l, tomb, ok := e.mem.get(key); ok {
		return l, !tomb, now, nil
	}
	for _, r := range e.runs {
		e.stats.BloomChecks++
		if e.tr.Enabled() {
			e.tr.Instant(telemetry.TrackIndex, "index.lsm.filter", now)
		}
		if !r.filter.mayContain(key) {
			e.stats.BloomNegative++
			continue
		}
		// Fence search: the block whose first key is <= key.
		blk := sort.SearchStrings(r.fences, key)
		if blk < len(r.fences) && r.fences[blk] == key {
			blk++ // exact fence hit: key is this block's first record
		}
		if blk == 0 {
			e.stats.BloomFalsePos++ // key sorts before the run's first record
			continue
		}
		block, done, err := e.readBlock(now, r, blk-1, true)
		if err != nil {
			return Loc{}, false, done, err
		}
		now = done
		l, tomb, found := searchBlock(block, key)
		if !found {
			e.stats.BloomFalsePos++
			continue
		}
		return l, !tomb, now, nil
	}
	return Loc{}, false, now, nil
}

// ---- iteration (scan + merge) ----

// runIter streams one run's records in key order with timed block reads.
type runIter struct {
	e     *lsmEngine
	r     *run
	blk   int // next block to read
	block []byte
	off   int

	key   string
	loc   Loc
	tomb  bool
	valid bool
}

// next advances the iterator; invalid when the run is exhausted.
func (it *runIter) next(now sim.Time) (sim.Time, error) {
	it.valid = false
	for {
		if it.off < len(it.block) {
			k, l, tomb, sz, ok := parseRunRecord(it.block[it.off:])
			if ok {
				it.key, it.loc, it.tomb, it.valid = string(k), l, tomb, true
				it.off += sz
				return now, nil
			}
			// Padding: fall through to the next block.
		}
		if it.blk >= it.r.blocks {
			return now, nil
		}
		block, done, err := it.e.readBlock(now, it.r, it.blk, false)
		if err != nil {
			return done, err
		}
		now = done
		it.block = block
		it.off = 0
		it.blk++
	}
}

// seek positions the iterator at the first record with key >= start.
func (it *runIter) seek(now sim.Time, start string) (sim.Time, error) {
	blk := sort.SearchStrings(it.r.fences, start)
	if blk > 0 && !(blk < len(it.r.fences) && it.r.fences[blk] == start) {
		blk-- // start may fall inside the preceding block
	}
	it.blk = blk
	it.block = nil
	it.off = 0
	var err error
	for {
		if now, err = it.next(now); err != nil {
			return now, err
		}
		if !it.valid || it.key >= start {
			return now, nil
		}
	}
}

// Scan merges the memtable and every run in recency order: for each key the
// newest source wins, and tombstones suppress the key entirely.
func (e *lsmEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	mem := e.mem.seek(start)
	iters := make([]*runIter, len(e.runs))
	var err error
	for i, r := range e.runs {
		iters[i] = &runIter{e: e, r: r}
		if now, err = iters[i].seek(now, start); err != nil {
			return now, err
		}
	}
	for {
		// Smallest key across sources; the first source holding it (memtable,
		// then runs in slice order) is the newest version.
		best := ""
		have := false
		if mem != nil {
			best, have = mem.key, true
		}
		for _, it := range iters {
			if it.valid && (!have || it.key < best) {
				best, have = it.key, true
			}
		}
		if !have {
			return now, nil
		}
		var winLoc Loc
		var winTomb bool
		decided := false
		if mem != nil && mem.key == best {
			winLoc, winTomb, decided = mem.loc, mem.tombstone, true
			mem = mem.next[0]
		}
		for _, it := range iters {
			if it.valid && it.key == best {
				if !decided {
					winLoc, winTomb, decided = it.loc, it.tomb, true
				}
				if now, err = it.next(now); err != nil {
					return now, err
				}
			}
		}
		if winTomb {
			continue
		}
		var more bool
		now, more = fn(now, best, winLoc)
		if !more {
			return now, nil
		}
	}
}

// ---- maintenance ----

// Tick merges the lowest level that exceeds the fanout into the next level
// — one leveled-merge round per maintenance tick, so compaction work rides
// the same cadence as the value log's.
func (e *lsmEngine) Tick(now sim.Time) (bool, sim.Time, error) {
	byLevel := make(map[int][]*run)
	maxLevel := 0
	for _, r := range e.runs {
		byLevel[r.level] = append(byLevel[r.level], r)
		if r.level > maxLevel {
			maxLevel = r.level
		}
	}
	for lvl := 0; lvl <= maxLevel; lvl++ {
		if len(byLevel[lvl]) > e.cfg.LevelFanout {
			now, err := e.mergeLevel(now, lvl, byLevel[lvl], maxLevel)
			return err == nil, now, err
		}
	}
	return false, now, nil
}

// mergeLevel k-way merges every run of lvl into one run at lvl+1. Inputs
// arrive newest-first (the engine's read order), so on duplicate keys the
// first source wins. Tombstones survive unless lvl is the deepest occupied
// level — then nothing older can resurrect the key.
func (e *lsmEngine) mergeLevel(now sim.Time, lvl int, inputs []*run, maxLevel int) (sim.Time, error) {
	iters := make([]*runIter, len(inputs))
	count := 0
	var err error
	for i, r := range inputs {
		iters[i] = &runIter{e: e, r: r}
		if now, err = iters[i].next(now); err != nil {
			return now, err
		}
		count += r.entries
	}
	// A tombstone can only be dropped when nothing older survives outside
	// this merge: runs at deeper levels hold older data the tombstone still
	// shadows, so it must ride along until the deepest level merges.
	dropTombs := lvl == maxLevel

	next := func(now sim.Time) (sim.Time, string, Loc, bool, bool) {
		for {
			best := -1
			for i, it := range iters {
				if it.valid && (best < 0 || it.key < iters[best].key) {
					best = i
				}
			}
			if best < 0 {
				return now, "", Loc{}, false, false
			}
			key, l, tomb := iters[best].key, iters[best].loc, iters[best].tomb
			for _, it := range iters {
				if it.valid && it.key == key {
					var nerr error
					if now, nerr = it.next(now); nerr != nil && err == nil {
						err = nerr
					}
				}
			}
			if tomb && dropTombs {
				continue
			}
			return now, key, l, tomb, true
		}
	}
	now, _, berr := e.buildRun(now, lvl+1, count, next)
	if berr != nil {
		return now, berr
	}
	if err != nil {
		return now, err
	}
	e.stats.Compactions++

	// Retire the inputs: the merged run has replaced them.
	for _, in := range inputs {
		if cerr := in.r.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := e.be.Remove(in.name); rerr != nil && err == nil {
			err = rerr
		}
		e.cache.dropRun(in.seq)
		for i, r := range e.runs {
			if r == in {
				e.runs = append(e.runs[:i], e.runs[i+1:]...)
				break
			}
		}
	}
	return now, err
}

func (e *lsmEngine) Close(now sim.Time) (sim.Time, error) {
	var err error
	for _, r := range e.runs {
		if cerr := r.r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return now, err
}
