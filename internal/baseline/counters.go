package baseline

import (
	"pipette/internal/fault"
	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/telemetry"
)

// Source names the part of a Ledger a counter row reads, which tells a
// consumer what it must snapshot to serve the row.
type Source uint8

const (
	// FromSnapshot rows read Ledger.Snap: device traffic and cache activity.
	FromSnapshot Source = iota
	// FromStore rows read Ledger.KV and Ledger.Index: one KV store and its
	// index engine.
	FromStore
	// FromFaults rows read Ledger.Faults, the injection/recovery ledger.
	FromFaults
)

// Ledger is everything the counter families read: a stack's traffic
// snapshot, one KV store's and index engine's counters, and the fault
// ledger. A consumer fills the parts its rows' sources need; every getter
// is a plain field read, so a row summed over several ledgers is the row
// of their sum.
type Ledger struct {
	Snap   metrics.Snapshot
	KV     kv.Stats
	Index  index.Stats
	Faults fault.Report
}

// Counter is one series of the live counter schema.
type Counter struct {
	Source Source
	Name   string
	Help   string
	Label  telemetry.Label // zero Key = unlabelled
	Get    func(*Ledger) uint64
}

// Labels returns the row's label set in the form Registry calls take.
func (c *Counter) Labels() []telemetry.Label {
	if c.Label.Key == "" {
		return nil
	}
	return []telemetry.Label{c.Label}
}

// Counters is the live counter schema: the ssd, cache, kv, kv_index and
// fault families that pipette.System.RegisterMetrics reads at scrape time
// and bench.Live folds finished cells into, so one dashboard serves both.
// Series of one family appear in exposition order: WritePrometheus keeps
// registration order within a family.
var Counters = []Counter{
	{FromSnapshot, "ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "block"),
		func(l *Ledger) uint64 { return l.Snap.IO.BlockReads }},
	{FromSnapshot, "ssd_reads_total", "read commands issued to the device", telemetry.L("interface", "fine"),
		func(l *Ledger) uint64 { return l.Snap.IO.FineReads }},
	{FromSnapshot, "ssd_writes_total", "write commands issued to the device", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Snap.IO.Writes }},
	{FromSnapshot, "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "requested"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesRequested }},
	{FromSnapshot, "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "transferred"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesTransferred }},
	{FromSnapshot, "ssd_bytes_total", "host-interface traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.Snap.IO.BytesWritten }},

	{FromSnapshot, "cache_hits_total", "cache hits", telemetry.L("cache", "page"),
		func(l *Ledger) uint64 { return l.Snap.PageCache.Hits }},
	{FromSnapshot, "cache_accesses_total", "cache accesses", telemetry.L("cache", "page"),
		func(l *Ledger) uint64 { return l.Snap.PageCache.Accesses }},
	{FromSnapshot, "cache_hits_total", "cache hits", telemetry.L("cache", "fine"),
		func(l *Ledger) uint64 { return l.Snap.FineCache.Hits }},
	{FromSnapshot, "cache_accesses_total", "cache accesses", telemetry.L("cache", "fine"),
		func(l *Ledger) uint64 { return l.Snap.FineCache.Accesses }},

	{FromStore, "kv_ops_total", "KV store operations", telemetry.L("op", "put"),
		func(l *Ledger) uint64 { return l.KV.Puts }},
	{FromStore, "kv_ops_total", "KV store operations", telemetry.L("op", "get"),
		func(l *Ledger) uint64 { return l.KV.Gets }},
	{FromStore, "kv_rotations_total", "KV log segments sealed", telemetry.Label{},
		func(l *Ledger) uint64 { return l.KV.Rotations }},
	{FromStore, "kv_compactions_total", "KV segments compacted", telemetry.Label{},
		func(l *Ledger) uint64 { return l.KV.Compactions }},
	{FromStore, "kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.KV.BytesWritten }},
	{FromStore, "kv_log_bytes_total", "KV value-log traffic", telemetry.L("direction", "read"),
		func(l *Ledger) uint64 { return l.KV.BytesRead }},

	{FromStore, "kv_index_node_reads_total", "B+-tree node fetches paid by KV lookups", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Index.NodeReads }},
	{FromStore, "kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "checked"),
		func(l *Ledger) uint64 { return l.Index.BloomChecks }},
	{FromStore, "kv_index_bloom_total", "LSM run-filter membership decisions", telemetry.L("result", "negative"),
		func(l *Ledger) uint64 { return l.Index.BloomNegative }},
	{FromStore, "kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "hit"),
		func(l *Ledger) uint64 { return l.Index.CacheHits }},
	{FromStore, "kv_index_cache_total", "LSM block-cache outcomes", telemetry.L("result", "miss"),
		func(l *Ledger) uint64 { return l.Index.CacheMisses }},
	{FromStore, "kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "read"),
		func(l *Ledger) uint64 { return l.Index.BytesRead }},
	{FromStore, "kv_index_bytes_total", "KV index-file traffic", telemetry.L("direction", "written"),
		func(l *Ledger) uint64 { return l.Index.BytesWritten }},

	{FromFaults, "fault_injected_total", "fault decisions drawn across all sites", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.Injected }},
	{FromFaults, "fault_ecc_retries_total", "NAND read-retry steps charged by the ECC ladder", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.ECCRetries }},
	{FromFaults, "fault_uncorrectable_total", "reads that exhausted the retry budget", telemetry.Label{},
		func(l *Ledger) uint64 { return l.Faults.Uncorrectable }},
	{FromFaults, "fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "ring"),
		func(l *Ledger) uint64 { return l.Faults.RingFallbacks }},
	{FromFaults, "fault_fallbacks_total", "fine reads re-served via block I/O", telemetry.L("path", "dma"),
		func(l *Ledger) uint64 { return l.Faults.DMAFallbacks }},
	{FromFaults, "fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "program"),
		func(l *Ledger) uint64 { return l.Faults.ProgramRetries }},
	{FromFaults, "fault_retries_total", "commands re-issued after a fault", telemetry.L("site", "writeback"),
		func(l *Ledger) uint64 { return l.Faults.WritebackRetries }},
}
