package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"pipette/internal/baseline"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/nvme"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/workload"
)

// The kv experiment runs a real application — the log-structured KV store —
// end-to-end over a read engine × index engine matrix: plain block I/O and
// Pipette, each over the in-memory hash index, the paged B+-tree, and the
// bloom-filtered LSM. Every Get asks for exactly the value's bytes, and the
// on-disk indexes add sub-page node/block reads to every lookup, so the gap
// between the read engines is the paper's core claim measured through a full
// storage application — including the index traversals real stores pay.

// kvEngines are the two ends of the comparison (the intermediate engines
// need raw device access the store does not model).
var kvEngines = []string{"Block I/O", "Pipette"}

// kvIndexKinds is the index-engine axis of the matrix, in canonical order.
var kvIndexKinds = index.Kinds()

// kvWorkloads is the YCSB subset the matrix replays: A (update-heavy),
// B (read-mostly), C (read-only), and E (scan-heavy, which exercises the
// ordered engines' range iterators). D and F repeat A/B's index access
// patterns and would push the matrix from 24 to 36 cells for no new shape.
var kvWorkloads = []string{"A", "B", "C", "E"}

const (
	kvAvgRecordBytes = 320 // header + "user%010d" key + 64..512 B value
	kvValueSpan      = 449 // value sizes 64 .. 512 inclusive
	kvMinValueBytes  = 64
	kvTickEvery      = 256 // ops between maintenance (compaction) ticks
	kvSeed           = 0x5eed1e
	// kvNegProbes absent-key Gets run after the measured workload: the
	// negative-lookup regime where the LSM's bloom filters prune run reads
	// and the B+-tree still pays a full root-to-leaf traversal.
	kvNegProbes = 512
)

// kvValueSize derives a deterministic 64..512 B value size from the key —
// the paper's small-value regime, far below the 4 KiB page.
func kvValueSize(key uint64) int {
	return kvMinValueBytes + int(sim.Mix64(key^kvSeed)%kvValueSpan)
}

// KVValue renders the value for (key, version) into dst: size bytes, or
// kvValueSize's 64..512 B for size 0. Every KV replay and the cluster tier
// share this pattern, so a read can be verified against it without a second
// store.
func KVValue(dst []byte, key uint64, ver uint32, size int) []byte {
	if size == 0 {
		size = kvValueSize(key)
	}
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	seed := sim.Mix64(key*0x9e3779b97f4a7c15 ^ uint64(ver)<<32)
	for i := range dst {
		if i&7 == 0 && i > 0 {
			seed = sim.Mix64(seed)
		}
		dst[i] = byte(seed >> (8 * (i & 7)))
	}
	return dst
}

// KVKey names record k, in YCSB's "user" + ten digits format.
func KVKey(k uint64) string { return fmt.Sprintf("user%010d", k) }

// kvNegKey names the i'th absent-key probe: a live key plus a suffix, so it
// sorts between two real records. Spreading the probes uniformly through the
// key range makes them real negative lookups — every B+-tree probe descends
// a different path, and LSM bloom false positives pay an actual block read.
func kvNegKey(i int, records uint64) string {
	return KVKey(sim.Mix64(uint64(i)*0x9e3779b97f4a7c15^0xab5e17)%records) + "x"
}

// kvStackConfig sizes a cell's stack for the scale's live records, with
// caches budgeted at an eighth of the dataset so both engines miss — the
// regime where the read path's granularity shows. Capacity is 4x the live
// set: segments churn (live + dead + headroom) and the on-disk index
// engines add arena and run files of their own. Unlike the baseline engines
// there is no preloaded workload file — the store creates its own segment
// files.
func kvStackConfig(s Scale) baseline.StackConfig {
	datasetBytes := int64(s.KVRecords) * kvAvgRecordBytes
	cfg := baseline.DefaultStackConfig(datasetBytes * 4)
	cfg.QueuePairs = 1
	cfg.SetCaches(baseline.CachesFor(datasetBytes))
	return cfg
}

// kvSegmentBytes picks the store's segment size for the scale: enough
// segments for rotation and compaction to matter, capped so full scale does
// not rewrite huge files per compaction.
func kvSegmentBytes(s Scale) int64 {
	seg := int64(s.KVRecords) * kvAvgRecordBytes / 12
	seg -= seg % 4096
	if seg < 64<<10 {
		seg = 64 << 10
	}
	if seg > 4<<20 {
		seg = 4 << 20
	}
	return seg
}

// kvIndexConfig tunes the index engine for the scale: the memtable flushes
// several runs over the load so leveled merges actually happen; everything
// else keeps the engine defaults (512 B nodes and blocks — the sub-page
// reads the fine path is built for).
func kvIndexConfig(s Scale, kind index.Kind) index.Config {
	memtable := int(s.KVRecords / 8)
	if memtable < 256 {
		memtable = 256
	}
	return index.Config{Kind: kind, MemtableEntries: memtable}
}

// kvCellResult is one (workload, engine, index) measurement: the cell's
// Result, whose IndexStats count since open (load + workload + probes),
// plus the store shape and the absent-key probe figures the tables
// render.
type kvCellResult struct {
	Result
	segs int
	keys int

	kind     index.Kind
	negHist  metrics.Histogram // latency of the absent-key probes
	negBytes uint64            // device bytes moved by the probes (read amp)
}

// runKVCell loads the store and replays one YCSB workload over one
// (read engine, index engine) pair, then probes absent keys.
func runKVCell(s Scale, wl string, fine bool, kind index.Kind) (*kvCellResult, error) {
	st, err := baseline.NewStack(kvStackConfig(s), fine)
	if err != nil {
		return nil, err
	}
	store, now, err := kv.Open(0, kv.VFSBackend{V: st.V}, kv.Config{
		SegmentBytes: kvSegmentBytes(s),
		FineReads:    fine,
		Index:        kvIndexConfig(s, kind),
	})
	if err != nil {
		return nil, err
	}
	gen, err := YCSB(wl, s.KVRecords, kvSeed)
	if err != nil {
		return nil, err
	}
	ops := s.KVRequests
	if wl == "E" {
		ops /= 10 // scans touch ~50 keys each; keep cell cost comparable
	}
	r, now, err := ReplayKV(st, store, now, gen, ops, KVOpts{})
	if err != nil {
		return nil, fmt.Errorf("bench: kv %s: %w", wl, err)
	}
	res := &kvCellResult{Result: *r, kind: kind, segs: store.Segments(), keys: store.Len()}

	// Negative-lookup probes, after the measured window so they pollute
	// neither the snapshot nor the stage waterfall: every probe must miss,
	// and its cost is the index engine's absent-key path — bloom-pruned for
	// the LSM, a full descent for the B+-tree, free for the hash. Device
	// bytes moved across the probes are the read-amplification side of the
	// comparison: a block-granular stack rounds every cold node or block up
	// to a page, the fine path transfers what the index asked for.
	preProbe := st.Snapshot("").IO.BytesTransferred
	for i := 0; i < kvNegProbes; i++ {
		before := now
		_, done, err := store.Get(now, kvNegKey(i, s.KVRecords), nil)
		if err != kv.ErrNotFound {
			return nil, fmt.Errorf("bench: kv %s negative probe %d: %v", wl, i, err)
		}
		now = done
		res.negHist.Observe(now - before)
	}
	res.negBytes = st.Snapshot("").IO.BytesTransferred - preProbe
	res.IndexStats = store.IndexStats()
	return res, nil
}

// YCSB builds core workload name's (A-F) generator over records keys.
func YCSB(name string, records, seed uint64) (*workload.YCSB, error) {
	cfg, err := workload.StandardYCSB(name, records, seed)
	if err != nil {
		return nil, err
	}
	return workload.NewYCSB(cfg)
}

// KVOpts tunes ReplayKV. The zero value is the kv matrix's: mixed value
// sizes, and every error is fatal.
type KVOpts struct {
	ValueBytes int // fixed value size (0 = KVValue's mixed sizes)
	// TolerateMediaErrors counts an operation or maintenance tick lost to
	// an uncorrectable media error in Result.Lost and goes on, as
	// RunOpts.TolerateMediaErrors does for Run.
	TolerateMediaErrors bool
}

// ReplayKV is the harness's YCSB loop over an open store. From now, the
// store's open time, it loads version 0 of gen's records and syncs, then
// replays and measures ops operations from gen, and returns the end time.
// The stack's stage account attributes each operation, the store ticks
// every kvTickEvery operations, each (ops/64+1)th operation that is a read
// is checked against KVValue, and the armed flight ring traces the stack.
// A key whose write was lost is unverified, and may read as absent, until
// a write of it succeeds; a write lost while loading is not in Lost.
func ReplayKV(st *baseline.Stack, store *kv.Store, now sim.Time, gen *workload.YCSB, ops int, opts KVOpts) (*Result, sim.Time, error) {
	if fr := armedFlight(); fr != nil {
		st.SetTracer(fr)
	}
	res := &Result{}
	ver := make(map[uint64]uint32, gen.Records())
	lost := map[uint64]bool{}
	var val, got []byte
	dumped := false
	// tolerated reports whether the replay goes on from err, naming what
	// failed in the flight dump the first one triggers.
	tolerated := func(err error, what string) bool {
		if !opts.TolerateMediaErrors || !errors.Is(err, nvme.ErrUncorrectable) {
			return false
		}
		if !dumped {
			dumped = true
			flightAnomaly(fmt.Sprintf("uncorrectable media error: kv %s at %v", what, now))
		}
		return true
	}
	put := func(key uint64, v uint32) (err error) {
		val = KVValue(val, key, v, opts.ValueBytes)
		if now, err = store.Put(now, KVKey(key), val); err != nil {
			lost[key] = true
			return fmt.Errorf("bench: kv put %d: %w", key, err)
		}
		delete(lost, key)
		return nil
	}
	get := func(key uint64) (err error) {
		if got, now, err = store.Get(now, KVKey(key), got[:0]); err != nil && !(err == kv.ErrNotFound && lost[key]) {
			return fmt.Errorf("bench: kv get %d: %w", key, err)
		}
		return nil
	}

	for k := uint64(0); k < gen.Records(); k++ {
		if err := put(k, 0); err != nil && !tolerated(err, "load") {
			return nil, now, err
		}
	}
	var err error
	if now, err = store.Sync(now); err != nil && !tolerated(err, "load sync") {
		return nil, now, err
	}

	verifyEvery := ops/64 + 1
	base := st.Snapshot("")
	baseKV := store.Stats()
	start := now
	for i := 0; i < ops; i++ {
		req := gen.Next()
		before := now
		st.SA.Begin(before)
		switch req.Op {
		case workload.OpRead:
			if err = get(req.Key); err == nil && i%verifyEvery == 0 && !lost[req.Key] {
				if val = KVValue(val, req.Key, ver[req.Key], opts.ValueBytes); !bytes.Equal(got, val) {
					err = fmt.Errorf("bench: kv: wrong bytes for key %d v%d", req.Key, ver[req.Key])
				}
			}
		case workload.OpUpdate:
			ver[req.Key]++
			err = put(req.Key, ver[req.Key])
		case workload.OpInsert:
			err = put(req.Key, 0)
		case workload.OpScan:
			now, err = store.Scan(now, KVKey(req.Key), req.ScanLen, func(string, []byte) bool { return true })
		case workload.OpRMW:
			if err = get(req.Key); err == nil {
				ver[req.Key]++
				err = put(req.Key, ver[req.Key])
			}
		}
		st.SA.Finish(now)
		switch {
		case err == nil:
			res.Hist.Observe(now - before)
		case tolerated(err, fmt.Sprintf("operation %d (%v %d)", i, req.Op, req.Key)):
			res.Lost++
		default:
			return nil, now, err
		}
		if i%kvTickEvery == kvTickEvery-1 {
			if _, now, err = store.MaintenanceTick(now); err != nil {
				if !tolerated(err, fmt.Sprintf("maintenance tick after operation %d", i)) {
					return nil, now, fmt.Errorf("bench: kv compaction: %w", err)
				}
				res.Lost++
			}
		}
	}

	res.Snapshot = measured(st.Snapshot(""), base, &res.Hist, now-start)
	res.Stages = st.SA.Snapshot()
	res.Resources = st.Res.Snapshot(now)
	res.KV = store.Stats()
	res.KV.Puts -= baseKV.Puts
	res.KV.Gets -= baseKV.Gets
	res.KV.BytesWritten -= baseKV.BytesWritten
	res.KV.BytesRead -= baseKV.BytesRead
	res.IndexStats = store.IndexStats()
	if st.Inj != nil {
		res.Faults = st.Faults()
	}
	return res, now, nil
}

// RunKV executes the workload × engine × index grid.
func RunKV(s Scale, p *Pool) ([][][]*kvCellResult, error) {
	grid := make([][][]*kvCellResult, len(kvWorkloads))
	for i := range grid {
		grid[i] = make([][]*kvCellResult, len(kvEngines))
		for j := range grid[i] {
			grid[i][j] = make([]*kvCellResult, len(kvIndexKinds))
		}
	}
	// Cells run in the export bundle's (workload, index, engine) order.
	var cells []Cell
	for wi, wl := range kvWorkloads {
		for ki, kind := range kvIndexKinds {
			for ei, name := range kvEngines {
				wi, ei, ki, wl, name, kind := wi, ei, ki, wl, name, kind
				cells = append(cells, Cell{
					Label: fmt.Sprintf("kv/ycsb-%s/%s/%s", wl, name, kind),
					Run: func() (*Result, error) {
						r, err := runKVCell(s, wl, ei == 1, kind)
						if err != nil {
							return nil, err
						}
						r.Name, r.Workload = fmt.Sprintf("%s/%s", name, kind), "YCSB-"+wl
						r.Index = kvIndexSummary(r)
						grid[wi][ei][ki] = r
						return &r.Result, nil
					},
				})
			}
		}
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	return grid, nil
}

// kvIndexSummary flattens one cell's index counters into the export record
// the HTML report's index section renders.
func kvIndexSummary(r *kvCellResult) *report.IndexSummary {
	idx := r.IndexStats
	return &report.IndexSummary{
		Kind:               string(r.kind),
		NodeReadsPerLookup: idx.NodeReadsPerLookup(),
		Height:             idx.Height,
		Splits:             idx.Splits,
		Merges:             idx.Merges,
		Runs:               idx.Runs,
		Flushes:            idx.Flushes,
		Compactions:        idx.Compactions,
		BloomNegative:      idx.BloomNegative,
		BloomFPPct:         100 * idx.BloomFPRate(),
		CacheHitPct:        100 * idx.CacheHitRate(),
		NegProbeMeanUs:     r.negHist.Mean().Micros(),
		NegProbeP99Us:      r.negHist.Quantile(0.99).Micros(),
		NegProbeReadKB:     float64(r.negBytes) / 1024,
		ReadMB:             float64(idx.BytesRead) / (1 << 20),
		WriteMB:            float64(idx.BytesWritten) / (1 << 20),
	}
}

// writeKV renders the kv experiment: the matrix table (per-workload
// throughput, latency, and read amplification over every read × index
// engine pair), the per-index-engine structure tables, and the log
// maintenance summary. Each cell's run record carries the index summary
// the HTML report renders.
func writeKV(w io.Writer, s Scale, p *Pool) error {
	grid, err := RunKV(s, p)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "=== kv store: YCSB %s x engine x index matrix, exact-length Gets (scale %s, %d records, %d ops) ===\n",
		strings.Join(kvWorkloads, "/"), s.Name, s.KVRecords, s.KVRequests)
	t := &metrics.Table{Header: []string{
		"Workload", "Index", "Engine", "Kops/s", "Mean us", "p99 us", "ReadAmp", "PC hit%", "Read MB", "Write MB"}}
	for wi, wl := range kvWorkloads {
		for ki, kind := range kvIndexKinds {
			for ei, name := range kvEngines {
				r := grid[wi][ei][ki]
				t.AddRow(
					"YCSB-"+wl, string(kind), name,
					fmt.Sprintf("%.1f", r.Snapshot.ThroughputOpsPerSec()/1e3),
					fmt.Sprintf("%.1f", r.Snapshot.MeanLat.Micros()),
					fmt.Sprintf("%.1f", r.Snapshot.P99Lat.Micros()),
					fmt.Sprintf("%.2f", r.Snapshot.IO.ReadAmplification()),
					fmt.Sprintf("%.1f", r.Snapshot.PageCache.HitRatio()*100),
					fmt.Sprintf("%.1f", r.Snapshot.IO.TrafficMB()),
					fmt.Sprintf("%.1f", float64(r.Snapshot.IO.BytesWritten)/(1<<20)),
				)
			}
		}
	}
	fmt.Fprint(w, t.Render())

	// The on-disk index engines, one table per structure. The absent-key
	// probe columns are the experiment's second claim: the B+-tree pays a
	// root-to-leaf descent per miss (sub-page node reads the fine path
	// serves cheaply) and the LSM prunes most run reads with its filters.
	btIdx, lsmIdx := kindIndex(index.BTree), kindIndex(index.LSM)
	fmt.Fprintf(w, "\n=== kv store: paged B+-tree index (load + workload + %d absent-key probes) ===\n", kvNegProbes)
	bt := &metrics.Table{Header: []string{
		"Workload", "Engine", "Height", "Nodes", "NodeRd/Get", "Splits", "Merges", "Neg us", "Neg p99", "Probe KB", "Idx rd MB"}}
	for wi, wl := range kvWorkloads {
		for ei, name := range kvEngines {
			r := grid[wi][ei][btIdx]
			bt.AddRow(
				"YCSB-"+wl, name,
				fmt.Sprintf("%d", r.IndexStats.Height),
				fmt.Sprintf("%d", r.IndexStats.Nodes),
				fmt.Sprintf("%.2f", r.IndexStats.NodeReadsPerLookup()),
				fmt.Sprintf("%d", r.IndexStats.Splits),
				fmt.Sprintf("%d", r.IndexStats.Merges),
				fmt.Sprintf("%.1f", r.negHist.Mean().Micros()),
				fmt.Sprintf("%.1f", r.negHist.Quantile(0.99).Micros()),
				fmt.Sprintf("%.1f", float64(r.negBytes)/1024),
				fmt.Sprintf("%.1f", float64(r.IndexStats.BytesRead)/(1<<20)),
			)
		}
	}
	fmt.Fprint(w, bt.Render())

	fmt.Fprintf(w, "\n=== kv store: LSM index, bloom filters + block cache (load + workload + %d absent-key probes) ===\n", kvNegProbes)
	lt := &metrics.Table{Header: []string{
		"Workload", "Engine", "Runs", "Flushes", "Merges", "Bloom neg", "FP%", "Cache%", "Neg us", "Neg p99", "Probe KB", "Idx rd MB"}}
	for wi, wl := range kvWorkloads {
		for ei, name := range kvEngines {
			r := grid[wi][ei][lsmIdx]
			lt.AddRow(
				"YCSB-"+wl, name,
				fmt.Sprintf("%d", r.IndexStats.Runs),
				fmt.Sprintf("%d", r.IndexStats.Flushes),
				fmt.Sprintf("%d", r.IndexStats.Compactions),
				fmt.Sprintf("%d", r.IndexStats.BloomNegative),
				fmt.Sprintf("%.2f", 100*r.IndexStats.BloomFPRate()),
				fmt.Sprintf("%.1f", 100*r.IndexStats.CacheHitRate()),
				fmt.Sprintf("%.1f", r.negHist.Mean().Micros()),
				fmt.Sprintf("%.1f", r.negHist.Quantile(0.99).Micros()),
				fmt.Sprintf("%.1f", float64(r.negBytes)/1024),
				fmt.Sprintf("%.1f", float64(r.IndexStats.BytesRead)/(1<<20)),
			)
		}
	}
	fmt.Fprint(w, lt.Render())

	fmt.Fprintf(w, "\n=== kv store: log maintenance per workload (Pipette engine, hash index) ===\n")
	mt := &metrics.Table{Header: []string{
		"Workload", "Keys", "Segments", "Rotations", "Compactions", "Reclaimed MB", "Moved MB"}}
	hashIdx := kindIndex(index.Hash)
	for wi, wl := range kvWorkloads {
		r := grid[wi][1][hashIdx]
		mt.AddRow(
			"YCSB-"+wl,
			fmt.Sprintf("%d", r.keys),
			fmt.Sprintf("%d", r.segs),
			fmt.Sprintf("%d", r.KV.Rotations),
			fmt.Sprintf("%d", r.KV.Compactions),
			fmt.Sprintf("%.1f", float64(r.KV.ReclaimedBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(r.KV.MovedBytes)/(1<<20)),
		)
	}
	fmt.Fprint(w, mt.Render())
	fmt.Fprintln(w)
	return nil
}

// kindIndex locates an index kind's column in kvIndexKinds.
func kindIndex(k index.Kind) int {
	for i, kk := range kvIndexKinds {
		if kk == k {
			return i
		}
	}
	return 0
}
