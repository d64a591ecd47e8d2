package bench

import (
	"strings"
	"testing"

	"pipette/internal/index"
	"pipette/internal/telemetry"
)

// kvMatrixTestScale shrinks the kv matrix so its 24 cells run in test time
// while still rotating segments, splitting B+-tree nodes, and flushing and
// merging LSM runs (the memtable floor is 256, so 2000 records flush 7
// runs over the load).
func kvMatrixTestScale() Scale {
	s := TinyScale()
	s.KVRecords = 2_000
	s.KVRequests = 1_200
	return s
}

// TestKVExperimentShapes runs the kv matrix at tiny scale and checks the
// paper's claim end-to-end: the same store over the fine-read path moves
// fewer device bytes per requested byte than over block I/O on the
// read-heavy small-value workloads — and the on-disk index engines behave
// like the structures they implement.
func TestKVExperimentShapes(t *testing.T) {
	t.Parallel()
	grid, err := RunKV(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hi, bi, li := kindIndex(index.Hash), kindIndex(index.BTree), kindIndex(index.LSM)
	lsmProbeCells := 0 // workloads whose LSM probes moved bytes over block I/O
	for wi, wl := range kvWorkloads {
		blk, pip := grid[wi][0][hi], grid[wi][1][hi]
		if blk.keys != pip.keys {
			t.Errorf("YCSB-%s: engines diverge on final key count: %d vs %d", wl, blk.keys, pip.keys)
		}
		if blk.Snapshot.Ops == 0 || pip.Snapshot.Ops == 0 {
			t.Fatalf("YCSB-%s: no measured ops", wl)
		}
		if wl == "A" || wl == "B" || wl == "C" {
			if pip.Snapshot.IO.FineReads == 0 {
				t.Errorf("YCSB-%s: Pipette engine served no fine reads", wl)
			}
			if pa, ba := pip.Snapshot.IO.ReadAmplification(), blk.Snapshot.IO.ReadAmplification(); pa >= ba {
				t.Errorf("YCSB-%s: Pipette read amp %.2f not below block I/O %.2f", wl, pa, ba)
			}
		}
		if blk.Snapshot.IO.FineReads != 0 {
			t.Errorf("YCSB-%s: block engine reports fine reads", wl)
		}
		// The measured window's stage attribution must conserve for both
		// engines — mutation paths (Put, compaction) included.
		for ei, r := range []*kvCellResult{blk, pip} {
			if r.Stages.Requests == 0 {
				t.Fatalf("YCSB-%s/%s: no stage-accounted ops", wl, kvEngines[ei])
			}
			if r.Stages.Sum() != r.Stages.Elapsed {
				t.Errorf("YCSB-%s/%s: stage sum %v != elapsed %v", wl, kvEngines[ei], r.Stages.Sum(), r.Stages.Elapsed)
			}
			if r.Resources == nil {
				t.Fatalf("YCSB-%s/%s: no resource snapshot", wl, kvEngines[ei])
			}
		}

		// The index axis: every engine must agree with the hash cell on
		// contents, the tree must have split into a real hierarchy, and the
		// LSM must have flushed runs and pruned the absent-key probes.
		for ei := range kvEngines {
			bt, lsm := grid[wi][ei][bi], grid[wi][ei][li]
			if bt.keys != blk.keys || lsm.keys != blk.keys {
				t.Errorf("YCSB-%s: index engines diverge on key count: hash %d, btree %d, lsm %d",
					wl, blk.keys, bt.keys, lsm.keys)
			}
			if bt.IndexStats.Height < 2 || bt.IndexStats.Splits == 0 {
				t.Errorf("YCSB-%s/%s: btree never grew (height %d, %d splits)",
					wl, kvEngines[ei], bt.IndexStats.Height, bt.IndexStats.Splits)
			}
			if bt.IndexStats.NodeReadsPerLookup() < 1 {
				t.Errorf("YCSB-%s/%s: btree lookups paid %.2f node reads each",
					wl, kvEngines[ei], bt.IndexStats.NodeReadsPerLookup())
			}
			if lsm.IndexStats.Flushes == 0 || lsm.IndexStats.Runs == 0 {
				t.Errorf("YCSB-%s/%s: lsm never flushed (%d flushes, %d runs)",
					wl, kvEngines[ei], lsm.IndexStats.Flushes, lsm.IndexStats.Runs)
			}
			if lsm.IndexStats.BloomNegative == 0 {
				t.Errorf("YCSB-%s/%s: bloom filters pruned nothing", wl, kvEngines[ei])
			}
			// FP fraction of all checks (BloomFPRate normalizes by the
			// maybes, which probe-only workloads like E drive to 1.0).
			if fp := float64(lsm.IndexStats.BloomFalsePos) / float64(lsm.IndexStats.BloomChecks); fp > 0.1 {
				t.Errorf("YCSB-%s/%s: bloom FP fraction %.2f", wl, kvEngines[ei], fp)
			}
		}

		// The second claim: absent-key probes through the on-disk indexes
		// move fewer device bytes over the fine path, which reads 512 B
		// nodes and blocks instead of 4 KiB pages. Bytes moved is the
		// robust form of the comparison — probe latency also depends on
		// which cache regime the scale lands each engine in. Where the
		// host caches answer every block-I/O probe of the LSM there is
		// nothing to compare: at tiny scale its runs fit them on YCSB-E.
		for _, ki := range []int{bi, li} {
			bb := grid[wi][0][ki].negBytes
			pb := grid[wi][1][ki].negBytes
			if ki == li {
				if bb == 0 {
					continue
				}
				lsmProbeCells++
			}
			if pb >= bb {
				t.Errorf("YCSB-%s/%s: Pipette probes moved %d KB, not below block I/O's %d KB",
					wl, kvIndexKinds[ki], pb/1024, bb/1024)
			}
		}
	}
	if lsmProbeCells == 0 {
		t.Error("no workload's LSM probes moved device bytes over block I/O")
	}
}

// TestKVMatrixDeterministicAcrossWorkers runs the kv matrix at -j 1 and
// -j 8 and requires the stdout tables, the export bundle, and the rendered
// report HTML to be byte-identical — the full engine × index grid must not
// leak host-scheduling order anywhere.
func TestKVMatrixDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	out, bundle, html, _ := exportAcrossWorkers(t, "kv", kvMatrixTestScale(), 1, 8)
	for _, want := range []string{"YCSB-A", "Compactions", "B+-tree index", "LSM index", "Bloom neg"} {
		if !strings.Contains(out, want) {
			t.Errorf("kv stdout misses %q", want)
		}
	}
	if !strings.Contains(html, "KV index engines") {
		t.Errorf("kv report HTML misses the index summary table")
	}
	if !strings.Contains(bundle, "\"index\"") {
		t.Errorf("export bundle carries no index summaries")
	}
}

// A fine kv cell's stack must give the core its stage account: fine-cache
// hits bill StageCache and request construction bills StageConstruct,
// rather than leaking into the ring and later stages — and the waterfall
// still sums to the accounted latency.
func TestKVFineCellBillsCoreStages(t *testing.T) {
	t.Parallel()
	r, err := runKVCell(kvMatrixTestScale(), "C", true, index.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot.IO.FineReads == 0 || r.Snapshot.FineCache.Hits == 0 {
		t.Fatalf("cell exercised no fine reads (%d) or fine hits (%d)", r.Snapshot.IO.FineReads, r.Snapshot.FineCache.Hits)
	}
	for _, s := range []telemetry.Stage{telemetry.StageConstruct, telemetry.StageCache} {
		if r.Stages.Totals[s] == 0 {
			t.Errorf("stage %v: no time billed", s)
		}
	}
	if r.Stages.Sum() != r.Stages.Elapsed {
		t.Fatalf("stage sum %v != elapsed %v: conservation broken", r.Stages.Sum(), r.Stages.Elapsed)
	}
}
