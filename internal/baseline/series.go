package baseline

import (
	"pipette/internal/fault"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/telemetry"
)

// Source names the part of a Ledger a row reads, which tells a consumer
// what it must snapshot to serve the row.
type Source uint8

const (
	// FromSnapshot rows read Ledger.Snap: device traffic and cache activity.
	FromSnapshot Source = iota
	// FromStore rows read Ledger.KV and Ledger.Index: one KV store and its
	// index engine.
	FromStore
	// FromFaults rows read Ledger.Faults, the injection/recovery ledger;
	// they exist only while a fault profile is armed.
	FromFaults
	// FromStack rows read Ledger.Stack: gauges of one live stack's state.
	FromStack
)

// Ledger is everything the series rows read: a stack's traffic snapshot,
// one KV store's and index engine's counters, the fault ledger, and the
// live stack itself for its gauges. A consumer fills the parts its rows'
// sources need. Every counter getter is a plain field read, so a counter
// row summed over several ledgers is the row of their sum.
type Ledger struct {
	Snap   metrics.Snapshot
	KV     kv.Stats
	Index  index.Stats
	Faults fault.Report
	Stack  *Stack
}

// Series is one row of the stack's series table: a value that the
// -stats-out sampler records as a column, that /metrics exposes as one
// series of a family, or both, read by one getter.
type Series struct {
	Source Source
	Column string // sampler column; "" = /metrics only
	Name   string // /metrics family; "" = sampler only
	Help   string
	Label  telemetry.Label // zero Key = unlabelled
	Gauge  bool            // a gauge family; otherwise a counter
	Fine   bool            // exists only on a stack with the fine-read core
	Get    func(*Ledger) float64
}

// counter builds a counter row over a ledger field; column names its
// sampler column ("" = /metrics only).
func counter(src Source, column, name, help string, label telemetry.Label, get func(*Ledger) uint64) Series {
	return Series{Source: src, Column: column, Name: name, Help: help, Label: label,
		Get: func(l *Ledger) float64 { return float64(get(l)) }}
}

// Labels returns the row's label set in the form Registry calls take.
func (r *Series) Labels() []telemetry.Label {
	if r.Label.Key == "" {
		return nil
	}
	return []telemetry.Label{r.Label}
}

// On reports whether the row exists on s: fault rows need an armed
// profile, fine rows the fine-read core.
func (r *Series) On(s *Stack) bool {
	return (r.Source != FromFaults || s.Inj != nil) && (!r.Fine || s.Core != nil)
}

// Schema is the series table. Stack.Probes samples its columns in table
// order; pipette.System.RegisterMetrics serves its families at scrape
// time; bench.Live folds finished cells into its counter families, so one
// dashboard serves both. Series of one family appear in exposition order:
// WritePrometheus keeps registration order within a family.
var Schema = []Series{
	{Column: "read_amp", Name: "pipette_read_amplification", Help: "transferred / requested bytes", Gauge: true,
		Get: func(l *Ledger) float64 { return l.Snap.IO.ReadAmplification() }},
	{Column: "pc_hit_ratio",
		Get: func(l *Ledger) float64 { return l.Snap.PageCache.HitRatio() }},
	{Column: "fine_hit_ratio", Fine: true,
		Get: func(l *Ledger) float64 { return l.Snap.FineCache.HitRatio() }},
	{Source: FromStack, Column: "threshold", Name: "pipette_fine_threshold_bytes",
		Help: "adaptive fine-read admission threshold", Gauge: true, Fine: true,
		Get: func(l *Ledger) float64 { return float64(l.Stack.Core.Threshold()) }},
	{Source: FromStack, Name: "pipette_cache_resident_bytes", Help: "cache memory in use",
		Label: telemetry.L("cache", "page"), Gauge: true,
		Get: func(l *Ledger) float64 { return float64(l.Stack.V.PageCache().MemoryBytes()) }},
	{Source: FromStack, Column: "fine_mem_bytes", Name: "pipette_cache_resident_bytes", Help: "cache memory in use",
		Label: telemetry.L("cache", "fine"), Gauge: true, Fine: true,
		Get: func(l *Ledger) float64 { return float64(l.Stack.Core.MemoryBytes()) }},
	{Source: FromStack, Column: "overflow_bytes", Fine: true,
		Get: func(l *Ledger) float64 { return float64(l.Stack.Core.OverflowBytes()) }},
	{Source: FromStack, Column: "hmb_info_pending", Fine: true,
		Get: func(l *Ledger) float64 { return float64(l.Stack.Core.Region().Info().Pending()) }},

	counter(FromSnapshot, "", "ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "block"),
		func(l *Ledger) uint64 { return l.Snap.IO.BlockReads }),
	counter(FromSnapshot, "", "ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "fine"),
		func(l *Ledger) uint64 { return l.Snap.IO.FineReads }),
	counter(FromSnapshot, "", "ssd_writes_total", "write commands issued to the device", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Snap.IO.Writes }),
	counter(FromSnapshot, "", "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "requested"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesRequested }),
	counter(FromSnapshot, "", "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "transferred"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesTransferred }),
	counter(FromSnapshot, "", "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesWritten }),

	counter(FromSnapshot, "", "cache_hits_total", "cache hits", telemetry.L("cache", "page"),
		func(l *Ledger) uint64 { return l.Snap.PageCache.Hits }),
	counter(FromSnapshot, "", "cache_accesses_total", "cache accesses", telemetry.L("cache", "page"),
		func(l *Ledger) uint64 { return l.Snap.PageCache.Accesses }),
	counter(FromSnapshot, "", "cache_hits_total", "cache hits", telemetry.L("cache", "fine"),
		func(l *Ledger) uint64 { return l.Snap.FineCache.Hits }),
	counter(FromSnapshot, "", "cache_accesses_total", "cache accesses", telemetry.L("cache", "fine"),
		func(l *Ledger) uint64 { return l.Snap.FineCache.Accesses }),

	counter(FromStore, "", "kv_ops_total", "KV store operations", telemetry.L("op", "put"),
		func(l *Ledger) uint64 { return l.KV.Puts }),
	counter(FromStore, "", "kv_ops_total", "KV store operations", telemetry.L("op", "get"),
		func(l *Ledger) uint64 { return l.KV.Gets }),
	counter(FromStore, "", "kv_rotations_total", "KV log segments sealed", telemetry.Label{},
		func(l *Ledger) uint64 { return l.KV.Rotations }),
	counter(FromStore, "", "kv_compactions_total", "KV segments compacted", telemetry.Label{},
		func(l *Ledger) uint64 { return l.KV.Compactions }),
	counter(FromStore, "", "kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.KV.BytesWritten }),
	counter(FromStore, "", "kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "read"),
		func(l *Ledger) uint64 { return l.KV.BytesRead }),

	counter(FromStore, "", "kv_index_node_reads_total", "B+-tree node fetches paid by KV lookups", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Index.NodeReads }),
	counter(FromStore, "", "kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "checked"),
		func(l *Ledger) uint64 { return l.Index.BloomChecks }),
	counter(FromStore, "", "kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "negative"),
		func(l *Ledger) uint64 { return l.Index.BloomNegative }),
	counter(FromStore, "", "kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "hit"),
		func(l *Ledger) uint64 { return l.Index.CacheHits }),
	counter(FromStore, "", "kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "miss"),
		func(l *Ledger) uint64 { return l.Index.CacheMisses }),
	counter(FromStore, "", "kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "read"),
		func(l *Ledger) uint64 { return l.Index.BytesRead }),
	counter(FromStore, "", "kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.Index.BytesWritten }),

	counter(FromFaults, "fault.injected", "fault_injected_total", "fault decisions drawn across all sites", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.Injected }),
	counter(FromFaults, "fault.ecc_retries", "fault_ecc_retries_total", "NAND read-retry steps charged by the ECC ladder", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.ECCRetries }),
	counter(FromFaults, "fault.uncorrectable", "fault_uncorrectable_total", "reads that exhausted the retry budget", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.Uncorrectable }),
	counter(FromFaults, "", "fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "program"),
		func(l *Ledger) uint64 { return l.Faults.ProgramRetries }),
	counter(FromFaults, "fault.wb_retries", "fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "writeback"),
		func(l *Ledger) uint64 { return l.Faults.WritebackRetries }),
	{Source: FromFaults, Column: "fault.fallbacks", Fine: true,
		Get: func(l *Ledger) float64 { return float64(l.Faults.RingFallbacks + l.Faults.DMAFallbacks) }},
	counter(FromFaults, "", "fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "ring"),
		func(l *Ledger) uint64 { return l.Faults.RingFallbacks }),
	counter(FromFaults, "", "fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "dma"),
		func(l *Ledger) uint64 { return l.Faults.DMAFallbacks }),
}
