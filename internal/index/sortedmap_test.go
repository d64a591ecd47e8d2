package index

import (
	"math/rand"
	"slices"
	"testing"

	"pipette/internal/sim"
)

// mapOp is one step of a sortedMap script: set (s), tombstone (t),
// delete (d), get (g), scan from key (a), or flush (f): read the whole map
// in key order and empty it, as a memtable flush does.
type mapOp struct {
	kind byte
	key  string
	seg  uint32
}

type oracleEntry struct {
	loc  Loc
	tomb bool
}

// runMapOps applies ops to a sortedMap and to a map oracle, and after each
// one checks the length, every get, and every scan and flush against the
// oracle's keys sorted with slices.Sort.
func runMapOps(t *testing.T, ops []mapOp) {
	t.Helper()
	m := newSortedMap()
	want := map[string]oracleEntry{}
	// scan returns the oracle's keys >= start in key order.
	scan := func(start string) []string {
		var keys []string
		for k := range want {
			if k >= start {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		return keys
	}
	check := func(i int, op mapOp, got []int32, keys []string) {
		t.Helper()
		if len(got) != len(keys) {
			t.Fatalf("op %d %c %q: %d keys in order, want %d", i, op.kind, op.key, len(got), len(keys))
		}
		for j, p := range got {
			e := m.ents[p]
			if w := want[keys[j]]; e.key != keys[j] || e.loc != w.loc || e.tombstone != w.tomb {
				t.Fatalf("op %d %c %q: entry %d is %q %v %v, want %q %v %v",
					i, op.kind, op.key, j, e.key, e.loc, e.tombstone, keys[j], w.loc, w.tomb)
			}
		}
	}
	for i, op := range ops {
		switch op.kind {
		case 's', 't':
			tomb := op.kind == 't'
			loc := Loc{Seg: op.seg, Off: int64(op.seg) * 3, ValLen: op.seg % 7}
			if tomb {
				loc = Loc{}
			}
			m.set(op.key, loc, tomb)
			want[op.key] = oracleEntry{loc, tomb}
		case 'd':
			_, had := want[op.key]
			if got := m.delete(op.key); got != had {
				t.Fatalf("op %d: delete(%q) = %v, want %v", i, op.key, got, had)
			}
			delete(want, op.key)
		case 'g':
			w, ok := want[op.key]
			if loc, tomb, found := m.get(op.key); found != ok || loc != w.loc || tomb != w.tomb {
				t.Fatalf("op %d: get(%q) = %v %v %v, want %v %v %v", i, op.key, loc, tomb, found, w.loc, w.tomb, ok)
			}
		case 'a':
			check(i, op, m.ascend(op.key), scan(op.key))
		case 'f':
			check(i, op, m.ascend(""), scan(""))
			m.reset()
			clear(want)
		default:
			t.Fatalf("op %d: unknown kind %c", i, op.kind)
		}
		if m.len() != len(want) {
			t.Fatalf("op %d %c %q: len = %d, want %d", i, op.kind, op.key, m.len(), len(want))
		}
		if len(m.ents) > 2*m.len()+1 {
			t.Fatalf("op %d: %d entries held for %d keys", i, len(m.ents), m.len())
		}
	}
}

// randomMapOps returns n ops drawn from kinds, half of them on a key an
// earlier op used. Keys are up to 11 bytes from a three-letter alphabet
// with a NUL in it, so they share prefixes, tie on the eight bytes the
// sort compares first, and end where another pads with zeros. Scans land
// between inserts, so each one merges a few new keys into a sorted part.
func randomMapOps(rng *rand.Rand, n int, kinds string) []mapOp {
	ops := make([]mapOp, n)
	var used []string
	for i := range ops {
		var key string
		if len(used) > 0 && rng.Intn(2) == 0 {
			key = used[rng.Intn(len(used))]
		} else {
			b := make([]byte, rng.Intn(12))
			for j := range b {
				b[j] = "\x00ab"[rng.Intn(3)]
			}
			key = string(b)
			used = append(used, key)
		}
		ops[i] = mapOp{kind: kinds[rng.Intn(len(kinds))], key: key, seg: uint32(i + 1)}
	}
	return ops
}

// TestSortedMapMatchesOracle: the sorted map agrees with a map and
// slices.Sort on a fixed script and on random ones, as the memtable uses
// it (sets, tombstones, gets, scans and flushes) and as the hash engine
// does (sets, deletes, gets and scans).
func TestSortedMapMatchesOracle(t *testing.T) {
	t.Parallel()
	t.Run("script", func(t *testing.T) {
		var ops []mapOp
		for i, k := range []string{"m", "c", "x", "a", "t", "c"} { // one duplicate
			ops = append(ops, mapOp{'s', k, uint32(i)})
		}
		ops = append(ops,
			mapOp{'g', "c", 0}, // the later payload
			mapOp{'a', "", 0},
			mapOp{'t', "m", 0}, // a tombstone overwrite keeps the key
			mapOp{'g', "m", 0},
			mapOp{'d', "m", 0},
			mapOp{'d', "m", 0}, // already gone
			mapOp{'a', "d", 0}, // from t
			mapOp{'f', "", 0},
		)
		runMapOps(t, ops)
	})
	t.Run("compact after merge", func(t *testing.T) {
		// The scan merges b's dead entry into the sorted part; deleting d
		// and e, never sorted, compacts and moves c.
		runMapOps(t, []mapOp{
			{'s', "a", 1}, {'s', "b", 2}, {'s', "c", 3}, {'d', "b", 0}, {'a', "", 0},
			{'s', "d", 4}, {'d', "d", 0}, {'s', "e", 5}, {'d', "e", 0}, {'a', "", 0}, {'g', "c", 0},
		})
	})
	rng := rand.New(rand.NewSource(36))
	for _, use := range []struct{ name, kinds string }{
		// Weighted by repetition: mostly writes, a scan every few ops.
		{"memtable", "ssssstttgggaaf"},
		{"hash", "ssssddddgggaa"},
	} {
		t.Run(use.name, func(t *testing.T) {
			for round := 0; round < 200; round++ {
				runMapOps(t, randomMapOps(rng, 1+rng.Intn(300), use.kinds))
			}
		})
	}
}

// newMemtableEngine returns an LSM engine over memory that flushes only
// by hand, holding keys in its memtable when keys is non-nil.
func newMemtableEngine(b *testing.B, keys []string) *lsmEngine {
	cfg := Config{Kind: LSM, MemtableEntries: 1 << 30}
	cfg.setDefaults()
	e := newLSM(memBackend{}, cfg)
	for i, k := range keys {
		if _, err := e.Insert(0, k, Loc{Seg: uint32(i), ValLen: 100}); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// flushAndDrop flushes e's memtable and removes the run it made, so a
// long benchmark does not pile runs up in memory.
func flushAndDrop(b *testing.B, e *lsmEngine) {
	if _, err := e.flush(0); err != nil {
		b.Fatal(err)
	}
	if err := e.retire(e.runs[0]); err != nil {
		b.Fatal(err)
	}
}

// memtableKeys is one default memtable of keys in random order.
func memtableKeys() []string {
	cfg := Config{Kind: LSM}
	cfg.setDefaults()
	return shuffledKeys(cfg.MemtableEntries, 4)
}

// BenchmarkMemtableInsert times LSM inserts of fresh keys into the
// memtable; the flush after each memtable's worth runs outside the timer.
func BenchmarkMemtableInsert(b *testing.B) {
	keys := memtableKeys()
	e := newMemtableEngine(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 && i > 0 {
			b.StopTimer()
			flushAndDrop(b, e)
			b.StartTimer()
		}
		if _, err := e.Insert(0, keys[i%len(keys)], Loc{Seg: uint32(i), ValLen: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemtableLookup times LSM lookups that a full memtable answers.
func BenchmarkMemtableLookup(b *testing.B) {
	keys := memtableKeys()
	e := newMemtableEngine(b, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := e.Lookup(0, keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Lookup = %v %v", ok, err)
		}
	}
}

// BenchmarkMemtableFlush times flushing a full memtable to a level-0 run:
// putting its keys in order and building the run.
func BenchmarkMemtableFlush(b *testing.B) {
	keys := memtableKeys()
	e := newMemtableEngine(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, k := range keys {
			if _, err := e.Insert(0, k, Loc{Seg: uint32(j), ValLen: 100}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := e.flush(sim.Time(i)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := e.retire(e.runs[0]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
