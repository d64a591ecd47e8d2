package index

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"pipette/internal/sim"
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
// A run is sorted records in prefix-compressed BlockBytes blocks, each
// sealed by one checksum (see record.go); the first key of each block is
// kept in memory as its fence pointer. A block is verified when it is read
// from the device, so a damaged one is an error naming its run and block,
// never a shorter block that lets an older run answer. Newer data shadows
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
	fences  fenceKeys // first key of each block
	filter  *bloom
	entries int
}

type lsmEngine struct {
	be  Backend
	cfg Config

	mem     *sortedMap
	runs    []*run // level asc, seq desc within level: recency order for reads
	nextSeq uint64
	cache   *blockCache

	stats    Stats
	buildBuf []byte      // the run being built's storage, kept across builds
	writer   blockWriter // packs the run being built into blocks
	fenceBuf fenceKeys   // the run being built's fences, copied out at its end
	spare    []byte      // the next lookup miss reads its block into this buffer

	// Merge scratch, kept across merges: the input iterators, their chunk
	// buffers and the winning key's copy.
	mergeIters []runIter
	chunks     [][]byte
	mergeKey   []byte
}

// fenceKeys holds a run's fence pointers, the first key of each block, in
// one buffer: key i is keys[ends[i-1]:ends[i]], with ends[-1] = 0.
type fenceKeys struct {
	keys []byte
	ends []int32
}

func (f *fenceKeys) len() int { return len(f.ends) }

// at returns fence i as a view into the buffer.
func (f *fenceKeys) at(i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = f.ends[i-1]
	}
	return f.keys[lo:f.ends[i]]
}

func (f *fenceKeys) add(key []byte) {
	f.keys = append(f.keys, key...)
	f.ends = append(f.ends, int32(len(f.keys)))
}

// search returns the index of the first fence >= key, as sort.SearchStrings
// over the fences would, and whether that fence equals key.
func (f *fenceKeys) search(key string) (int, bool) {
	// string(...) in a comparison does not allocate.
	i := sort.Search(f.len(), func(i int) bool { return string(f.at(i)) >= key })
	return i, i < f.len() && string(f.at(i)) == key
}

// clone returns a copy sized to its contents.
func (f *fenceKeys) clone() fenceKeys {
	return fenceKeys{keys: slices.Clone(f.keys), ends: slices.Clone(f.ends)}
}

func newLSM(be Backend, cfg Config) *lsmEngine {
	return &lsmEngine{
		be:    be,
		cfg:   cfg,
		mem:   newSortedMap(),
		cache: newBlockCache(BlockCacheBlocks),
	}
}

func (e *lsmEngine) Stats() Stats {
	s := e.stats
	s.Runs = len(e.runs)
	return s
}

// ---- writes ----

func (e *lsmEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	if !keyFits(len(key)) {
		return now, fmt.Errorf("index: key of %d bytes does not fit a %d B lsm block", len(key), BlockBytes)
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
	order := e.mem.ascend("")
	var key []byte
	next := func(now sim.Time) (sim.Time, []byte, Loc, bool, bool) {
		if len(order) == 0 {
			return now, nil, Loc{}, false, false
		}
		m := &e.mem.ents[order[0]]
		order = order[1:]
		key = append(key[:0], m.key...)
		return now, key, m.loc, m.tombstone, true
	}
	now, _, err := e.buildRun(now, 0, e.mem.len(), next)
	if err != nil {
		return now, err
	}
	e.stats.Flushes++
	e.mem.reset()
	return now, nil
}

// buildRun materializes a sorted record stream into a run file at level,
// building its fences and bloom filter along the way. The write is one
// timed sequential append — the LSM's characteristic I/O shape. Each key
// next yields need only stay valid until the following call: the run
// copies each block's first key into its fence buffer.
func (e *lsmEngine) buildRun(now sim.Time, level, count int, next func(sim.Time) (sim.Time, []byte, Loc, bool, bool)) (sim.Time, *run, error) {
	bw := &e.writer
	bw.reset(e.buildBuf)
	filter := newBloom(count, BloomBitsPerKey)
	fences := &e.fenceBuf
	fences.keys, fences.ends = fences.keys[:0], fences.ends[:0]
	entries := 0
	for {
		var key []byte
		var l Loc
		var tomb, ok bool
		now, key, l, tomb, ok = next(now)
		if !ok {
			break
		}
		if bw.add(key, l, tomb) {
			fences.add(key)
		}
		filter.add(key)
		entries++
	}
	buf := bw.finish()
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
		blocks:  len(buf) / BlockBytes,
		fences:  fences.clone(),
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

// readBlocks reads up to count run blocks from blk on through f into buf,
// growing it if needed, and returns them; fewer when the run ends first.
// Every block it returns has been verified.
func (e *lsmEngine) readBlocks(now sim.Time, f File, r *run, blk, count int, buf []byte) ([]byte, sim.Time, error) {
	bb := int64(BlockBytes)
	off := int64(blk) * bb
	n := int64(count) * bb
	if off+n > r.size {
		n = r.size - off
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, int64(count)*bb)
	}
	buf = buf[:n]
	got, done, err := f.ReadAt(now, buf, off)
	if err != nil {
		return nil, done, fmt.Errorf("index: run %s block %d: %w", r.name, blk, err)
	}
	now = done
	if got != int(n) {
		return nil, now, fmt.Errorf("index: run %s block %d: short read %d", r.name, blk, got)
	}
	e.stats.BytesRead += uint64(n)
	for i := 0; i < len(buf); i += BlockBytes {
		if err := verifyBlock(buf[i : i+BlockBytes]); err != nil {
			return nil, now, fmt.Errorf("index: run %s block %d: %w", r.name, blk+i/BlockBytes, err)
		}
	}
	return buf, now, nil
}

// lookupBlock fetches one run block for a point lookup, through the block
// cache. A miss reads into the buffer of the block the cache evicted last,
// so a cache at capacity reads without allocating. The block is valid until
// the next lookupBlock. Sequential consumers (merges, scans) read through
// their own buffers, so streaming a level does not evict the hot lookup
// blocks.
func (e *lsmEngine) lookupBlock(now sim.Time, r *run, blk int) ([]byte, sim.Time, error) {
	key := blockCacheKey{seq: r.seq, blk: blk}
	if data, ok := e.cache.get(key); ok {
		e.stats.CacheHits++
		return data, now, nil
	}
	e.stats.CacheMisses++
	buf, now, err := e.readBlocks(now, r.r, r, blk, 1, e.spare)
	if err != nil {
		return nil, now, err
	}
	e.spare = e.cache.put(key, buf)
	return buf, now, nil
}

// ---- lookup ----

// searchBlock scans one verified block's records for key and returns its
// Loc, whether that is a tombstone and whether the block holds key at all;
// errBlockRecords when a record does not parse. It compares each record's
// key with key without rebuilding it: match is how many leading bytes of
// key the previous record's key holds, and as keys ascend with the longest
// shared prefixes, a record that shares more than match bytes with its
// predecessor still sorts below key, one that shares fewer already sorts
// above it.
func searchBlock(block []byte, key string) (Loc, bool, bool, error) {
	left, b := blockRecords(block)
	match := 0
	for ; left > 0; left-- {
		shared, sfx, loc, size, tomb := parseRecord(b)
		if size == 0 {
			return Loc{}, false, false, errBlockRecords
		}
		suffix, locb := b[sfx:loc], b[loc:size]
		b = b[size:]
		if shared != match {
			if shared < match {
				break
			}
			continue
		}
		n := 0
		for n < len(suffix) && match+n < len(key) && suffix[n] == key[match+n] {
			n++
		}
		match += n
		if n < len(suffix) {
			if match == len(key) || suffix[n] > key[match] {
				break // the record's key sorts above key
			}
			continue
		}
		if match == len(key) {
			if l, ok := decodeLoc(locb); ok {
				return l, tomb, true, nil
			}
			return Loc{}, false, false, errBlockRecords
		}
		// The record's key is a prefix of key: it sorts below.
	}
	return Loc{}, false, false, nil
}

func (e *lsmEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	e.stats.Lookups++
	if l, tomb, ok := e.mem.get(key); ok {
		return l, !tomb, now, nil
	}
	for _, r := range e.runs {
		e.stats.BloomChecks++
		if !r.filter.mayContain(key) {
			e.stats.BloomNegative++
			continue
		}
		// Fence search: the block whose first key is <= key.
		blk, exact := r.fences.search(key)
		if exact {
			blk++ // exact fence hit: key is this block's first record
		}
		if blk == 0 {
			e.stats.BloomFalsePos++ // key sorts before the run's first record
			continue
		}
		block, done, err := e.lookupBlock(now, r, blk-1)
		if err != nil {
			return Loc{}, false, done, err
		}
		now = done
		l, tomb, found, err := searchBlock(block, key)
		if err != nil {
			return Loc{}, false, now, fmt.Errorf("index: run %s block %d: %w", r.name, blk-1, err)
		}
		if !found {
			e.stats.BloomFalsePos++
			continue
		}
		return l, !tomb, now, nil
	}
	return Loc{}, false, now, nil
}

// ---- iteration (scan + merge) ----

// runIter streams one run's records in key order with timed reads of
// chunk blocks at a time through f: a scan reads one block at a time
// through the run's reader, a merge many through a direct handle. It reads
// every chunk into the one buffer it owns and rebuilds keys in its block
// decoder, so key is a view that stays valid only until the next call to
// next.
type runIter struct {
	e      *lsmEngine
	r      *run
	f      File
	chunk  int // blocks per read
	blk    int // next block to read
	block  []byte
	off    int       // the next block to decode in block
	dec    blockIter // the block being decoded
	decBlk int       // its index in the run

	key   []byte
	loc   Loc
	tomb  bool
	valid bool
}

// next advances the iterator; invalid when the run is exhausted.
func (it *runIter) next(now sim.Time) (sim.Time, error) {
	it.valid = false
	for {
		if it.dec.next() {
			l, ok := it.dec.loc()
			if !ok {
				return now, it.damaged()
			}
			it.key, it.loc, it.tomb, it.valid = it.dec.key(), l, it.dec.tomb, true
			return now, nil
		}
		if it.dec.left > 0 {
			return now, it.damaged()
		}
		if it.off < len(it.block) {
			it.dec.reset(it.block[it.off : it.off+BlockBytes])
			it.decBlk = it.blk - it.chunk + it.off/BlockBytes
			it.off += BlockBytes
			continue
		}
		if it.blk >= it.r.blocks {
			return now, nil
		}
		block, done, err := it.e.readBlocks(now, it.f, it.r, it.blk, it.chunk, it.block)
		if err != nil {
			return done, err
		}
		now = done
		it.block = block
		it.off = 0
		it.blk += it.chunk
	}
}

// damaged reports a record of the block being decoded that does not parse.
func (it *runIter) damaged() error {
	return fmt.Errorf("index: run %s block %d: %w", it.r.name, it.decBlk, errBlockRecords)
}

// seek positions the iterator at the first record with key >= start.
func (it *runIter) seek(now sim.Time, start string) (sim.Time, error) {
	blk, exact := it.r.fences.search(start)
	if blk > 0 && !exact {
		blk-- // start may fall inside the preceding block
	}
	it.blk = blk
	it.block = it.block[:0]
	it.off = 0
	it.dec.reset(nil)
	var err error
	for {
		if now, err = it.next(now); err != nil {
			return now, err
		}
		if !it.valid || string(it.key) >= start {
			return now, nil
		}
	}
}

// Scan merges the memtable and every run in recency order: for each key the
// newest source wins, and tombstones suppress the key entirely.
func (e *lsmEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	mem := e.mem.ascend(start) // the memtable's positions, in key order
	iters := make([]runIter, len(e.runs))
	var err error
	for i, r := range e.runs {
		iters[i] = runIter{e: e, r: r, f: r.r, chunk: 1}
		if now, err = iters[i].seek(now, start); err != nil {
			return now, err
		}
	}
	var best []byte // the smallest key, copied out of its source
	for {
		// Smallest key across sources; the first source holding it (memtable,
		// then runs in slice order) is the newest version.
		have := false
		if len(mem) > 0 {
			best, have = append(best[:0], e.mem.ents[mem[0]].key...), true
		}
		for i := range iters {
			if it := &iters[i]; it.valid && (!have || bytes.Compare(it.key, best) < 0) {
				best, have = append(best[:0], it.key...), true
			}
		}
		if !have {
			return now, nil
		}
		var key string // the memtable's own string, when it holds the key
		var winLoc Loc
		var winTomb bool
		decided := false
		if len(mem) > 0 {
			if m := &e.mem.ents[mem[0]]; m.key == string(best) {
				key, winLoc, winTomb, decided = m.key, m.loc, m.tombstone, true
				mem = mem[1:]
			}
		}
		fromRun := !decided
		for i := range iters {
			if it := &iters[i]; it.valid && bytes.Equal(it.key, best) {
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
		if fromRun {
			key = string(best)
		}
		var more bool
		now, more = fn(now, key, winLoc)
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
	// e.runs is in read order, level ascending, so each level's runs sit
	// together, newest first.
	for lo := 0; lo < len(e.runs); {
		lvl, hi := e.runs[lo].level, lo+1
		for hi < len(e.runs) && e.runs[hi].level == lvl {
			hi++
		}
		if hi-lo > LevelFanout {
			// The merge retires its inputs from e.runs: hand it a copy.
			inputs := slices.Clone(e.runs[lo:hi])
			now, err := e.mergeLevel(now, lvl, inputs, e.runs[len(e.runs)-1].level)
			return err == nil, now, err
		}
		lo = hi
	}
	return false, now, nil
}

// mergeLevel k-way merges every run of lvl into one run at lvl+1. Inputs
// arrive newest-first (the engine's read order), so on duplicate keys the
// first source wins. Tombstones survive unless lvl is the deepest occupied
// level — then nothing older can resurrect the key.
func (e *lsmEngine) mergeLevel(now sim.Time, lvl int, inputs []*run, maxLevel int) (sim.Time, error) {
	iters, err := e.openInputs(inputs)
	if err != nil {
		return now, err
	}
	count, size := 0, int64(0)
	for i, r := range inputs {
		if now, err = iters[i].next(now); err != nil {
			e.closeInputs(iters)
			return now, err
		}
		count += r.entries
		size += int64(r.blocks) * BlockBytes
	}
	// The merged run takes no more blocks than its inputs when its keys are
	// of one length, and about as many otherwise: grow the build buffer once
	// rather than record by record.
	if int64(cap(e.buildBuf)) < size {
		e.buildBuf = make([]byte, 0, size)
	}
	// A tombstone can only be dropped when nothing older survives outside
	// this merge: runs at deeper levels hold older data the tombstone still
	// shadows, so it must ride along until the deepest level merges.
	dropTombs := lvl == maxLevel

	next := func(now sim.Time) (sim.Time, []byte, Loc, bool, bool) {
		for err == nil {
			best := -1
			for i := range iters {
				if iters[i].valid && (best < 0 || bytes.Compare(iters[i].key, iters[best].key) < 0) {
					best = i
				}
			}
			if best < 0 {
				return now, nil, Loc{}, false, false
			}
			// The winning key, copied out before its iterators advance.
			key := append(e.mergeKey[:0], iters[best].key...)
			e.mergeKey = key
			l, tomb := iters[best].loc, iters[best].tomb
			for i := range iters {
				if it := &iters[i]; it.valid && bytes.Equal(it.key, key) {
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
		return now, nil, Loc{}, false, false // an input failed: stop the merge
	}
	now, merged, berr := e.buildRun(now, lvl+1, count, next)
	if cerr := e.closeInputs(iters); cerr != nil && err == nil {
		err = cerr
	}
	if berr != nil {
		return now, berr
	}
	if err != nil {
		// The merged run lacks what the failed input still held: keep the
		// inputs and drop it.
		if merged != nil {
			_ = e.retire(merged) // the input's error is the one to report
		}
		return now, err
	}
	e.stats.Compactions++

	// Retire the inputs: the merged run has replaced them.
	for _, in := range inputs {
		if rerr := e.retire(in); rerr != nil && err == nil {
			err = rerr
		}
	}
	return now, err
}

// retire closes and removes run r and forgets its cached blocks.
func (e *lsmEngine) retire(r *run) error {
	err := r.r.Close()
	if rerr := e.be.Remove(r.name); rerr != nil && err == nil {
		err = rerr
	}
	e.cache.dropRun(r.seq)
	for i, x := range e.runs {
		if x == r {
			e.runs = append(e.runs[:i], e.runs[i+1:]...)
			break
		}
	}
	return err
}

// openInputs gives each merge input an iterator reading MergeChunkBytes at
// a time through a direct handle into a chunk from the engine's pool. The
// iterators are the engine's scratch, valid until closeInputs.
func (e *lsmEngine) openInputs(inputs []*run) ([]runIter, error) {
	iters := e.mergeIters[:0]
	for _, r := range inputs {
		f, err := e.be.OpenDirect(r.name)
		if err != nil {
			e.closeInputs(iters)
			return nil, fmt.Errorf("index: open run %s: %w", r.name, err)
		}
		var chunk []byte
		if n := len(e.chunks); n > 0 {
			chunk, e.chunks = e.chunks[n-1], e.chunks[:n-1]
		} else {
			chunk = make([]byte, MergeChunkBytes)
		}
		iters = append(iters, runIter{e: e, r: r, f: f, chunk: MergeChunkBytes / BlockBytes, block: chunk[:0]})
	}
	e.mergeIters = iters
	return iters, nil
}

// closeInputs closes the iterators' direct handles and returns their
// chunks to the pool.
func (e *lsmEngine) closeInputs(iters []runIter) error {
	var err error
	for i := range iters {
		if cerr := iters[i].f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		e.chunks = append(e.chunks, iters[i].block[:0])
		iters[i] = runIter{}
	}
	return err
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
