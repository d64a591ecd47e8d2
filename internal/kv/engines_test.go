package kv

import (
	"fmt"
	"strings"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// engineTestConfig tunes a store so every engine exercises its on-disk
// machinery within a few hundred keys: small segments rotate, a small
// memtable flushes runs, nodes split.
func engineTestConfig(kind index.Kind, fine bool) Config {
	return Config{
		SegmentBytes: 16 << 10,
		FineReads:    fine,
		Index: index.Config{
			Kind:            kind,
			MemtableEntries: 32,
		},
	}
}

// runEngineWorkload drives a store through puts, overwrites, deletes, and
// maintenance, then returns the full ordered scan as "key=value" lines plus
// the final virtual time — the observable state an engine must agree on.
func runEngineWorkload(t *testing.T, s *Store) []string {
	t.Helper()
	now := sim.Time(0)
	var err error
	const n = 250
	key := func(i int) string { return fmt.Sprintf("e-%04d", i) }
	for i := 0; i < n; i++ {
		if now, err = s.Put(now, key(i), testVal(key(i), 0)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			if _, now, err = s.MaintenanceTick(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i += 3 {
		if now, err = s.Put(now, key(i), testVal(key(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if now, err = s.Delete(now, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		ran, done, err := s.MaintenanceTick(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !ran {
			break
		}
	}

	// Point lookups agree with the workload.
	for i := 0; i < n; i++ {
		got, done, err := s.Get(now, key(i), nil)
		now = done
		if i%5 == 0 {
			if err != ErrNotFound {
				t.Fatalf("Get(%s) deleted key: %v", key(i), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s): %v", key(i), err)
		}
		v := 0
		if i%3 == 0 {
			v = 1
		}
		if string(got) != string(testVal(key(i), v)) {
			t.Fatalf("Get(%s) = %q", key(i), got)
		}
	}

	var lines []string
	if _, err = s.Scan(now, "", n+10, func(k string, v []byte) bool {
		lines = append(lines, k+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStoreEngineConformance runs the same workload on every index engine,
// block and fine, and asserts the ordered scans are identical across all of
// them — and still identical after a close/reopen rebuild.
func TestStoreEngineConformance(t *testing.T) {
	t.Parallel()
	var firstName string
	var first []string
	for _, kind := range index.Kinds() {
		for _, fine := range []bool{false, true} {
			name := fmt.Sprintf("%s/fine=%v", kind, fine)
			be := testBackend(t, fine)
			cfg := engineTestConfig(kind, fine)
			s := testStore(t, be, cfg)
			lines := runEngineWorkload(t, s)
			if len(lines) == 0 {
				t.Fatalf("%s: empty scan", name)
			}
			if _, err := s.Close(0); err != nil {
				t.Fatal(err)
			}

			// Reopen: the engine is rebuilt from the log; the scan must not
			// change.
			s2, now, err := Open(0, be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var again []string
			if _, err = s2.Scan(now, "", len(lines)+10, func(k string, v []byte) bool {
				again = append(again, k+"="+string(v))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if strings.Join(again, "\n") != strings.Join(lines, "\n") {
				t.Fatalf("%s: scan changed across reopen (%d -> %d lines)", name, len(lines), len(again))
			}

			// Every engine, fine or block, must observe the same contents.
			if first == nil {
				firstName, first = name, lines
			} else if strings.Join(lines, "\n") != strings.Join(first, "\n") {
				t.Fatalf("%s and %s disagree on scan contents (%d vs %d lines)",
					firstName, name, len(first), len(lines))
			}
		}
	}
}

// TestCrashRecoveryTornBTreeNode damages btree node cells in every field
// class (magic, flags, count, checksum, payload — the bit-flip corpus the
// log corruption tests use) between a close and a reopen. The engine is
// scratch state: Open removes the damaged files and rebuilds from the
// checksummed log, so every key must survive untouched.
func TestCrashRecoveryTornBTreeNode(t *testing.T) {
	t.Parallel()
	cases := []struct {
		field string
		off   int64 // within the node cell
		bit   uint
	}{
		{"magic", 0, 3},
		{"flags", 1, 0},
		{"count", 2, 4},
		{"link", 4, 1},
		{"checksum", 10, 7},
		{"payload", 40, 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.field, func(t *testing.T) {
			t.Parallel()
			be := testBackend(t, true)
			cfg := engineTestConfig(index.BTree, true)
			s := testStore(t, be, cfg)
			now := sim.Time(0)
			var err error
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("b-%03d", i)
				if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if now, err = s.Close(now); err != nil {
				t.Fatal(err)
			}

			// Tear one node cell per arena: a write the crash cut short.
			arena := ""
			for _, name := range be.Files() {
				if strings.Contains(name, "idx-bt-") {
					arena = name
					break
				}
			}
			if arena == "" {
				t.Fatal("no btree arena file on the backend")
			}
			// Damage several cells, not just one — recovery must not read
			// them at all.
			for cell := 0; cell < 4; cell++ {
				flipBit(t, be, arena, int64(cell*index.NodeBytes)+tc.off, tc.bit)
			}

			s2, now, err := Open(now, be, cfg)
			if err != nil {
				t.Fatalf("reopen after torn node: %v", err)
			}
			if s2.Len() != 200 {
				t.Fatalf("Len = %d after rebuild, want 200", s2.Len())
			}
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("b-%03d", i)
				got, done, err := s2.Get(now, key, nil)
				if err != nil {
					t.Fatalf("Get(%s) after torn node: %v", key, err)
				}
				now = done
				if string(got) != string(testVal(key, 0)) {
					t.Fatalf("Get(%s) = %q after rebuild", key, got)
				}
			}
		})
	}
}

// TestCrashRecoveryTruncatedLSMRun zeroes the tail of an LSM run file — a
// flush the crash cut short — and reopens. The rebuilt engine must serve
// every record; the truncated run is removed as stale scratch.
func TestCrashRecoveryTruncatedLSMRun(t *testing.T) {
	t.Parallel()
	be := testBackend(t, true)
	cfg := engineTestConfig(index.LSM, true)
	s := testStore(t, be, cfg)
	now := sim.Time(0)
	var err error
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("l-%03d", i)
		if now, err = s.Put(now, key, testVal(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.IndexStats().Runs == 0 {
		t.Fatal("setup: no LSM runs flushed")
	}
	if now, err = s.Close(now); err != nil {
		t.Fatal(err)
	}

	// Truncate every run: zero its back half.
	runs := 0
	for _, name := range be.Files() {
		if !strings.Contains(name, "idx-lsm-") {
			continue
		}
		runs++
		w, err := be.OpenWriter(name)
		if err != nil {
			t.Fatal(err)
		}
		size := w.Size()
		zero := make([]byte, size-size/2)
		if _, now, err = w.WriteAt(now, zero, size/2); err != nil {
			t.Fatal(err)
		}
		if now, err = w.Sync(now); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if runs == 0 {
		t.Fatal("no run files on the backend")
	}

	s2, now, err := Open(now, be, cfg)
	if err != nil {
		t.Fatalf("reopen after truncated runs: %v", err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("l-%03d", i)
		got, done, err := s2.Get(now, key, nil)
		if err != nil {
			t.Fatalf("Get(%s) after truncated run: %v", key, err)
		}
		now = done
		if string(got) != string(testVal(key, 0)) {
			t.Fatalf("Get(%s) = %q after rebuild", key, got)
		}
	}
}
