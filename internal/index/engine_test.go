package index_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pipette/internal/blockdev"
	"pipette/internal/core"
	"pipette/internal/extfs"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/nvme"
	"pipette/internal/sim"
	"pipette/internal/ssd"
	"pipette/internal/vfs"
)

// testBackend builds a small but real storage stack (the same one the KV
// store's tests use). fine additionally installs the Pipette fine-read
// engine so O_FINE_GRAINED handles work.
func testBackend(t testing.TB, fine bool) index.Backend {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 64
	cfg.NAND.PagesPerBlock = 64
	ctrl, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := nvme.NewDriver(ctrl, 64, nvme.DefaultCosts())
	blk, err := blockdev.New(drv, ctrl.PageSize(), blockdev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := extfs.New(ctrl)
	vcfg := vfs.DefaultConfig()
	vcfg.PageCachePages = 64
	v, err := vfs.New(fs, blk, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fine {
		if _, err := core.New(v, drv, core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	return kv.VFSBackend{V: v}
}

// testEngineConfig tunes the memtable down so flushes happen within a few
// hundred keys.
func testEngineConfig(kind index.Kind, fine bool) index.Config {
	return index.Config{
		Kind:            kind,
		NamePrefix:      "idx/",
		Fine:            fine,
		MemtableEntries: 64,
	}
}

func testKey(i int) string { return fmt.Sprintf("k-%04d", i) }

// TestEngineConformance drives every engine, fine and block, through the
// same insert/overwrite/delete workload against a reference map, checking
// lookups (present and absent), full and mid-start ordered scans, and early
// scan termination.
func TestEngineConformance(t *testing.T) {
	t.Parallel()
	for _, kind := range index.Kinds() {
		for _, fine := range []bool{false, true} {
			kind, fine := kind, fine
			t.Run(fmt.Sprintf("%s/fine=%v", kind, fine), func(t *testing.T) {
				t.Parallel()
				be := testBackend(t, fine)
				eng, err := index.New(be, testEngineConfig(kind, fine))
				if err != nil {
					t.Fatal(err)
				}
				ref := make(map[string]index.Loc)
				now := sim.Time(0)

				tick := func() {
					if _, done, err := eng.Tick(now); err != nil {
						t.Fatal(err)
					} else {
						now = done
					}
				}
				const n = 600
				for i := 0; i < n; i++ {
					l := index.Loc{Seg: uint32(i%7 + 1), Off: int64(i) * 64, ValLen: uint32(i%100 + 1)}
					if now, err = eng.Insert(now, testKey(i), l); err != nil {
						t.Fatal(err)
					}
					ref[testKey(i)] = l
					if i%100 == 99 {
						tick()
					}
				}
				for i := 0; i < n; i += 3 { // overwrites supersede
					l := index.Loc{Seg: uint32(i%5 + 20), Off: int64(i) * 96, ValLen: uint32(i%50 + 1)}
					if now, err = eng.Insert(now, testKey(i), l); err != nil {
						t.Fatal(err)
					}
					ref[testKey(i)] = l
				}
				for i := 0; i < n; i += 5 { // deletes, some of absent keys later
					if now, err = eng.Delete(now, testKey(i)); err != nil {
						t.Fatal(err)
					}
					delete(ref, testKey(i))
				}
				tick()
				tick()

				// Lookups: every possible key, present or absent, plus a range
				// past the keyspace.
				for i := 0; i < n+100; i++ {
					key := testKey(i)
					l, ok, done, err := eng.Lookup(now, key)
					if err != nil {
						t.Fatalf("Lookup(%s): %v", key, err)
					}
					now = done
					want, present := ref[key]
					if ok != present || (ok && l != want) {
						t.Fatalf("Lookup(%s) = %v %v, want %v %v", key, l, ok, want, present)
					}
				}

				// Ordered scans, full and from a mid key.
				wantKeys := make([]string, 0, len(ref))
				for k := range ref {
					wantKeys = append(wantKeys, k)
				}
				sort.Strings(wantKeys)
				for _, start := range []string{"", testKey(n / 2)} {
					var got []string
					now, err = eng.Scan(now, start, func(now sim.Time, key string, l index.Loc) (sim.Time, bool) {
						if l != ref[key] {
							t.Fatalf("Scan yielded %s -> %v, want %v", key, l, ref[key])
						}
						got = append(got, key)
						return now, true
					})
					if err != nil {
						t.Fatal(err)
					}
					i := sort.SearchStrings(wantKeys, start)
					if fmt.Sprint(got) != fmt.Sprint(wantKeys[i:]) {
						t.Fatalf("Scan(%q): %d keys, want %d (first diff near %v)", start, len(got), len(wantKeys[i:]), diffAt(got, wantKeys[i:]))
					}
				}

				// Early termination stops exactly where fn says.
				count := 0
				now, err = eng.Scan(now, "", func(now sim.Time, key string, l index.Loc) (sim.Time, bool) {
					count++
					return now, count < 10
				})
				if err != nil || count != 10 {
					t.Fatalf("early-stop scan visited %d keys (err %v), want 10", count, err)
				}

				s := eng.Stats()
				if s.Inserts == 0 || s.Lookups == 0 {
					t.Fatalf("stats not counting: %+v", s)
				}
				if _, err := eng.Close(now); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func diffAt(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] got %s want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(got), len(want))
}

// TestBTreeSplitMerge forces deep trees and heavy deletion, checking the
// structural stats and that the tree stays correct throughout.
func TestBTreeSplitMerge(t *testing.T) {
	t.Parallel()
	be := testBackend(t, true)
	cfg := testEngineConfig(index.BTree, true)
	eng, err := index.New(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	const n = 800
	for i := 0; i < n; i++ {
		if now, err = eng.Insert(now, testKey(i*7%n), index.Loc{Seg: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.Splits == 0 || s.Height < 3 || s.Nodes < 10 {
		t.Fatalf("no tree growth: %+v", s)
	}
	if s.NodeReadsPerLookup() != 0 {
		t.Fatalf("NodeReadsPerLookup before lookups = %f", s.NodeReadsPerLookup())
	}

	// Delete most keys; the tree must shrink and stay consistent.
	for i := 0; i < n; i++ {
		if i%8 != 0 {
			if now, err = eng.Delete(now, testKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s = eng.Stats()
	if s.Merges == 0 {
		t.Fatalf("deletes never merged or borrowed: %+v", s)
	}
	for i := 0; i < n; i++ {
		_, ok, done, err := eng.Lookup(now, testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if want := i%8 == 0; ok != want {
			t.Fatalf("Lookup(%s) = %v, want %v", testKey(i), ok, want)
		}
	}
	s = eng.Stats()
	if s.NodeReads == 0 || float64(s.NodeReads) < float64(s.Lookups) {
		t.Fatalf("lookups read no nodes: %+v", s)
	}
}

// TestBTreeChecksumRejectsCorruption flips a bit in a node cell and checks
// the engine returns an error instead of serving a wrong Loc.
func TestBTreeChecksumRejectsCorruption(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := testEngineConfig(index.BTree, false)
	eng, err := index.New(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		if now, err = eng.Insert(now, testKey(i), index.Loc{Seg: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Node id 1 — arena 0, offset 0 — is the leftmost leaf: splits keep the
	// left half in place, so the smallest key always lives there. Flip one
	// payload bit in the cell.
	w, err := be.OpenWriter("idx/bt-00000000")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, now, err = w.ReadAt(now, b, 20); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << 3
	if _, now, err = w.WriteAt(now, b, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.Lookup(now, testKey(0)); err == nil {
		t.Fatal("lookup through a corrupt node cell returned no error")
	}
}

// TestLSMFlushMergeBloomCache exercises the LSM machinery: flushes, level
// merges, bloom pruning on negative lookups, and block-cache hits on
// repeated probes.
func TestLSMFlushMergeBloomCache(t *testing.T) {
	t.Parallel()
	be := testBackend(t, true)
	cfg := testEngineConfig(index.LSM, true)
	eng, err := index.New(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	const n = 500
	for i := 0; i < n; i++ {
		if now, err = eng.Insert(now, testKey(i), index.Loc{Seg: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.Flushes == 0 || s.Runs == 0 {
		t.Fatalf("memtable never flushed: %+v", s)
	}

	// Drain the merge queue.
	for {
		ran, done, err := eng.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !ran {
			break
		}
	}
	s = eng.Stats()
	if s.Compactions == 0 {
		t.Fatalf("ticks never merged a level: %+v", s)
	}
	if s.Runs > index.LevelFanout*3 {
		t.Fatalf("merge left %d runs", s.Runs)
	}

	// All keys still resolve after merging.
	for i := 0; i < n; i++ {
		l, ok, done, err := eng.Lookup(now, testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !ok || l.Seg != uint32(i+1) {
			t.Fatalf("Lookup(%s) after merge = %v %v", testKey(i), l, ok)
		}
	}

	// Negative lookups: the filters must prune nearly everything.
	before := eng.Stats()
	for i := 0; i < n; i++ {
		_, ok, done, err := eng.Lookup(now, fmt.Sprintf("absent-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if ok {
			t.Fatalf("absent key %d found", i)
		}
	}
	s = eng.Stats()
	if s.BloomNegative <= before.BloomNegative {
		t.Fatalf("bloom filters never pruned a run: %+v", s)
	}
	if rate := s.BloomFPRate(); rate > 0.2 {
		t.Fatalf("bloom FP rate %.3f too high", rate)
	}

	// Repeated probes of the same keys hit the block cache.
	before = eng.Stats()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 4; i++ {
			if _, _, done, err := eng.Lookup(now, testKey(i)); err != nil {
				t.Fatal(err)
			} else {
				now = done
			}
		}
	}
	s = eng.Stats()
	if s.CacheHits <= before.CacheHits {
		t.Fatalf("repeated lookups never hit the block cache: %+v", s)
	}
	if _, err := eng.Close(now); err != nil {
		t.Fatal(err)
	}
}

// TestLSMTombstones checks deletes shadow older run entries across flushes
// and merges, and that scans mask them.
func TestLSMTombstones(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	cfg := testEngineConfig(index.LSM, false)
	eng, err := index.New(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	const n = 300
	for i := 0; i < n; i++ {
		if now, err = eng.Insert(now, testKey(i), index.Loc{Seg: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if now, err = eng.Delete(now, testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for {
			ran, done, err := eng.Tick(now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if !ran {
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		_, ok, done, err := eng.Lookup(now, testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if want := i%2 == 1; ok != want {
			t.Fatalf("Lookup(%s) = %v, want %v", testKey(i), ok, want)
		}
	}
	count := 0
	now, err = eng.Scan(now, "", func(now sim.Time, key string, l index.Loc) (sim.Time, bool) {
		count++
		return now, true
	})
	if err != nil || count != n/2 {
		t.Fatalf("scan visited %d keys (err %v), want %d", count, err, n/2)
	}
}

// TestRemoveFiles checks stale engine files under a prefix are deleted and
// others preserved.
func TestRemoveFiles(t *testing.T) {
	t.Parallel()
	be := testBackend(t, false)
	for _, name := range []string{"idx/bt-00000000", "idx/lsm-L0-00000001", "other/file"} {
		w, err := be.Create(name, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := index.RemoveFiles(be, "idx/"); err != nil {
		t.Fatal(err)
	}
	for _, name := range be.Files() {
		if name != "other/file" {
			t.Fatalf("stale file %s survived", name)
		}
	}
}

// TestLSMCachedLookupAllocFree pins an LSM point lookup whose block is in
// the block cache at zero allocations: the block search compares record
// keys in place instead of building a string per record.
func TestLSMCachedLookupAllocFree(t *testing.T) {
	eng, err := index.New(testBackend(t, true), testEngineConfig(index.LSM, true))
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		if now, err = eng.Insert(now, testKey(i), index.Loc{Seg: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	key := testKey(37) // flushed to a run by now
	lookup := func() {
		l, ok, done, err := eng.Lookup(now, key)
		if err != nil || !ok || l.Seg != 38 {
			t.Fatalf("Lookup(%q) = %v %v %v", key, l, ok, err)
		}
		now = done
	}
	lookup()
	before := eng.Stats()
	if allocs := testing.AllocsPerRun(500, lookup); allocs != 0 {
		t.Errorf("cached LSM lookup allocated %.2f times, want 0", allocs)
	}
	if after := eng.Stats(); after.CacheHits == before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("lookups under test did not all hit the block cache: %+v -> %+v", before, after)
	}
}

// TestLSMCorruptBlockIsAnError damages one byte of a run block, where an
// older run holds the same keys with other Locs: the run's first block,
// which a merge reads as it opens its inputs, and a block past the first
// merge chunk, which it reads midway. A lookup, a scan and a merge across
// the block must each fail with an error naming the run and the block; no
// lookup may answer from the older run, and the failed merge leaves its
// inputs as they were.
func TestLSMCorruptBlockIsAnError(t *testing.T) {
	t.Parallel()
	const (
		keys   = 10000 // per run: about 200 blocks, more than a merge chunk
		damage = 20    // the damaged byte's offset in its block
	)
	key := func(i int) string { return fmt.Sprintf("c-%05d", i) }
	for _, fine := range []bool{false, true} {
		for _, blk := range []int{0, 150} {
			fine, blk := fine, blk
			t.Run(fmt.Sprintf("fine=%v/block=%d", fine, blk), func(t *testing.T) {
				t.Parallel()
				be := testBackend(t, fine)
				cfg := testEngineConfig(index.LSM, fine)
				cfg.MemtableEntries = keys
				eng, err := index.New(be, cfg)
				if err != nil {
					t.Fatal(err)
				}
				now := sim.Time(0)
				// Five level-0 runs, one memtable each: the keys at Seg 1 and
				// then at Seg 2, then three runs of other keys, so the next
				// Tick merges all five.
				for round := 0; round < index.LevelFanout+1; round++ {
					base := 0
					if round >= 2 {
						base = keys * (round - 1)
					}
					for i := 0; i < keys; i++ {
						l := index.Loc{Seg: uint32(round + 1), Off: int64(i) * 4096}
						if now, err = eng.Insert(now, key(base+i), l); err != nil {
							t.Fatal(err)
						}
					}
				}
				if s := eng.Stats(); s.Runs != index.LevelFanout+1 {
					t.Fatalf("setup: %d runs, want %d", s.Runs, index.LevelFanout+1)
				}
				const name = "idx/lsm-L0-00000001" // the run holding the keys at Seg 2
				w, err := be.OpenWriter(name)
				if err != nil {
					t.Fatal(err)
				}
				if size := w.Size(); size <= int64(blk+1)*index.BlockBytes || size <= index.MergeChunkBytes {
					t.Fatalf("setup: run of %d bytes", size)
				}
				off := int64(blk)*index.BlockBytes + damage
				b := make([]byte, 1)
				if _, now, err = w.ReadAt(now, b, off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x40
				if _, now, err = w.WriteAt(now, b, off); err != nil {
					t.Fatal(err)
				}
				if now, err = w.Sync(now); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				where := fmt.Sprintf("run %s block %d:", name, blk)
				check := func(op string, err error) {
					t.Helper()
					if err == nil {
						t.Fatalf("%s across the damaged block returned no error", op)
					}
					if !strings.Contains(err.Error(), where) {
						t.Fatalf("%s: error %q does not name %q", op, err, where)
					}
				}
				// Every key of the damaged run resolves to its Seg 2 Loc or
				// fails; the keys of the damaged block fail.
				lookups := func() {
					t.Helper()
					var first error
					for i := 0; i < keys; i++ {
						l, ok, _, err := eng.Lookup(now, key(i))
						if err == nil && (!ok || l.Seg != 2) {
							t.Fatalf("Lookup(%s) = %v %v and no error, want Seg 2", key(i), l, ok)
						}
						if first == nil {
							first = err
						}
					}
					check("Lookup", first)
				}
				lookups()
				_, err = eng.Scan(now, "", func(now sim.Time, key string, l index.Loc) (sim.Time, bool) {
					if l.Seg == 1 {
						t.Fatalf("Scan yielded %s -> %v from an older run", key, l)
					}
					return now, true
				})
				check("Scan", err)
				_, _, err = eng.Tick(now)
				check("merge", err)
				if s := eng.Stats(); s.Runs != index.LevelFanout+1 {
					t.Fatalf("after the failed merge: %d runs, want the %d inputs", s.Runs, index.LevelFanout+1)
				}
				if files := be.Files(); len(files) != index.LevelFanout+1 {
					t.Fatalf("after the failed merge: files %v, want the %d inputs", files, index.LevelFanout+1)
				}
				lookups()
			})
		}
	}
}
