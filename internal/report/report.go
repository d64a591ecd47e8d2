// Package report defines the run-export bundle — the machine-readable
// record of one simulation or benchmark run: request counts, latency
// percentiles, the per-stage time waterfall, and the per-resource
// occupancy timelines — plus the renderer that turns one or more bundles
// into a self-contained HTML run report.
//
// Everything here is deterministic by construction: exports carry only
// virtual-time measurements (never wall-clock), collections are slices in
// a fixed order (never map iteration), and floats render with fixed
// precision. Identical runs therefore produce byte-identical JSON and
// byte-identical HTML, at any worker count — which is what lets CI diff
// reports across commits.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pipette/internal/metrics"
	"pipette/internal/resource"
	"pipette/internal/telemetry"
)

// Percentiles summarizes one latency distribution in microseconds.
type Percentiles struct {
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// PercentilesOf extracts the summary from a latency histogram.
func PercentilesOf(h *metrics.Histogram) Percentiles {
	if h == nil || h.Count() == 0 {
		return Percentiles{}
	}
	return Percentiles{
		MeanUs: h.Mean().Micros(),
		P50Us:  h.Quantile(0.50).Micros(),
		P90Us:  h.Quantile(0.90).Micros(),
		P99Us:  h.Quantile(0.99).Micros(),
		P999Us: h.Quantile(0.999).Micros(),
		MaxUs:  h.Max().Micros(),
	}
}

// StageRow is one stage of a run's time-attribution waterfall. Requests
// counts only the requests where the stage claimed nonzero time.
type StageRow struct {
	Name     string  `json:"name"`
	TotalNs  int64   `json:"total_ns"`
	Requests uint64  `json:"requests"`
	MeanUs   float64 `json:"mean_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`
}

// StageRows flattens a stage snapshot into waterfall rows, in pipeline
// order, skipping stages that never claimed time.
func StageRows(s *telemetry.StageSnapshot) []StageRow {
	var rows []StageRow
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		if s.Totals[st] == 0 {
			continue
		}
		h := &s.Hists[st]
		rows = append(rows, StageRow{
			Name:     st.String(),
			TotalNs:  int64(s.Totals[st]),
			Requests: h.Count(),
			MeanUs:   h.Mean().Micros(),
			P99Us:    h.Quantile(0.99).Micros(),
			MaxUs:    h.Max().Micros(),
		})
	}
	return rows
}

// Run is one measured replay: an engine × workload cell of pipette-bench
// or one pipette-sim workload.
type Run struct {
	Name      string  `json:"name"`
	Workload  string  `json:"workload,omitempty"`
	Requests  uint64  `json:"requests"`
	ElapsedNs int64   `json:"elapsed_ns"` // virtual time consumed
	OpsPerSec float64 `json:"ops_per_sec"`
	ReadAmp   float64 `json:"read_amp,omitempty"`

	// Open-loop runs only: the offered arrival rate (OpsPerSec above is
	// the achieved throughput), the admission queue-depth bound, and the
	// arrival process ("poisson", "bursty"). All zero/empty for
	// closed-loop runs.
	OfferedOpsPerSec float64 `json:"offered_ops_per_sec,omitempty"`
	QueueDepth       int     `json:"queue_depth,omitempty"`
	Arrivals         string  `json:"arrivals,omitempty"`

	// Lost counts requests that failed with uncorrectable media errors
	// under an armed fault profile (Requests is goodput).
	Lost uint64 `json:"lost,omitempty"`
	// Rejected counts open-loop arrivals bounced off a full admission
	// FIFO; Throttled counts arrivals bounced by a tenant rate limiter.
	// Both are zero outside backpressure/QoS runs.
	Rejected  uint64 `json:"rejected,omitempty"`
	Throttled uint64 `json:"throttled,omitempty"`

	Latency Percentiles `json:"latency"`

	// Shards describes the members of a cluster run (empty for
	// single-device runs): the per-shard routing, replication, and
	// admission ledger the cluster summary section renders.
	Shards []ShardSummary `json:"shards,omitempty"`

	// Index describes the KV index engine behind a kv-matrix run (nil for
	// every other run): structure shape, filter/cache effectiveness, and
	// the absent-key probe latencies the index summary section renders.
	Index *IndexSummary `json:"index,omitempty"`

	// StageNs is the conservation sum: total time attributed across all
	// stages, equal to the summed end-to-end latencies of every request
	// the stage account finished.
	StageNs int64      `json:"stage_ns"`
	Stages  []StageRow `json:"stages"`

	// Exemplars are the run's top-K slowest requests with their full span
	// lists — the raw material of the tail waterfalls. TailBlame is the
	// blame composition aggregated over the kept set (the slowest
	// TailKept requests), which approximates "where p99 time goes".
	Exemplars []Exemplar `json:"exemplars,omitempty"`
	TailBlame []BlameRow `json:"tail_blame,omitempty"`
	TailKept  int        `json:"tail_kept,omitempty"`

	// Heat is the completion-time × latency-bucket heatmap of the run's
	// measured phase (nil when the harness did not collect one).
	Heat *telemetry.HeatSnapshot `json:"heat,omitempty"`

	Resources *resource.Snapshot `json:"resources,omitempty"`
}

// SpanRow is one attributed interval of an exemplar request. Res, when
// set, names the concrete resource blamed for the interval ("nand.ch2.w5",
// "nvme.sq1", "pcie.dma"); spans are contiguous and partition the
// request's [start, end] exactly.
type SpanRow struct {
	Stage   string `json:"stage"`
	Res     string `json:"res,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Exemplar is one captured slow request. Seq is its completion-order
// index within the run's measured phase — together with StartNs it makes
// exemplar identity deterministic.
type Exemplar struct {
	Seq       uint64    `json:"seq"`
	StartNs   int64     `json:"start_ns"`
	LatencyUs float64   `json:"latency_us"`
	Spans     []SpanRow `json:"spans"`
}

// BlameRow is one (stage, resource) row of a blame composition, with its
// share of the composition's total time.
type BlameRow struct {
	Stage    string  `json:"stage"`
	Res      string  `json:"res,omitempty"`
	TotalNs  int64   `json:"total_ns"`
	SharePct float64 `json:"share_pct"`
}

// blameRows converts telemetry blame segments into report rows with
// shares of their own total.
func blameRows(blame []telemetry.BlameSeg) []BlameRow {
	var total int64
	for _, s := range blame {
		total += int64(s.Total)
	}
	rows := make([]BlameRow, len(blame))
	for i, s := range blame {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Total) / float64(total)
		}
		rows[i] = BlameRow{
			Stage:    s.Stage.String(),
			Res:      s.Res,
			TotalNs:  int64(s.Total),
			SharePct: share,
		}
	}
	return rows
}

// TailRows converts a tail snapshot into the run's exemplar and blame
// fields. A nil snapshot yields empty results.
func TailRows(snap *telemetry.TailSnapshot) (exemplars []Exemplar, blame []BlameRow, kept int) {
	if snap == nil {
		return nil, nil, 0
	}
	exemplars = make([]Exemplar, len(snap.TopK))
	for i := range snap.TopK {
		e := &snap.TopK[i]
		spans := make([]SpanRow, len(e.Segs))
		for j, s := range e.Segs {
			spans[j] = SpanRow{
				Stage:   s.Stage.String(),
				Res:     s.Res.String(),
				StartNs: int64(s.Start),
				EndNs:   int64(s.End),
			}
		}
		exemplars[i] = Exemplar{
			Seq:       e.Seq,
			StartNs:   int64(e.Start),
			LatencyUs: e.Latency().Micros(),
			Spans:     spans,
		}
	}
	return exemplars, blameRows(snap.Blame), snap.Kept
}

// ShardSummary is one cluster member's ledger in a cluster run: how much
// primary traffic the consistent-hash ring routed to it, the replica work
// it absorbed (replicated writes, hedge and failover reads), what its
// admission FIFO rejected, and how busy its device stayed.
type ShardSummary struct {
	Shard         int     `json:"shard"`
	Primary       uint64  `json:"primary"`
	Executions    uint64  `json:"executions"`
	ReplicaWrites uint64  `json:"replica_writes,omitempty"`
	Hedges        uint64  `json:"hedges,omitempty"`
	Failovers     uint64  `json:"failovers,omitempty"`
	Rejected      uint64  `json:"rejected,omitempty"`
	MediaErrors   uint64  `json:"media_errors,omitempty"`
	Faulted       bool    `json:"faulted,omitempty"`
	Utilization   float64 `json:"utilization"` // busiest resource's busy fraction
}

// IndexSummary is one KV cell's index-engine ledger: the paged B+-tree's
// traversal shape, the LSM's run/filter/cache behavior, and the latency of
// the absent-key probe batch — the negative-lookup regime where the two
// structures differ most. Fields that do not apply to the engine kind stay
// zero and are omitted from the JSON.
type IndexSummary struct {
	Kind string `json:"kind"`

	// B+-tree.
	NodeReadsPerLookup float64 `json:"node_reads_per_lookup,omitempty"`
	Height             int     `json:"height,omitempty"`
	Splits             uint64  `json:"splits,omitempty"`
	Merges             uint64  `json:"merges,omitempty"`

	// LSM.
	Runs          int     `json:"runs,omitempty"`
	Flushes       uint64  `json:"flushes,omitempty"`
	Compactions   uint64  `json:"compactions,omitempty"`
	BloomNegative uint64  `json:"bloom_negative,omitempty"`
	BloomFPPct    float64 `json:"bloom_fp_pct,omitempty"`
	CacheHitPct   float64 `json:"cache_hit_pct,omitempty"`

	NegProbeMeanUs float64 `json:"neg_probe_mean_us,omitempty"`
	NegProbeP99Us  float64 `json:"neg_probe_p99_us,omitempty"`
	// NegProbeReadKB is the device traffic the probe batch moved — the
	// read-amplification side of the negative-lookup comparison.
	NegProbeReadKB float64 `json:"neg_probe_read_kb,omitempty"`
	ReadMB         float64 `json:"read_mb,omitempty"`
	WriteMB        float64 `json:"write_mb,omitempty"`
}

// Export is one run bundle: what a tool invocation measured. Version is
// the producing binary's build version (ldflags-stamped; "dev" for local
// builds), so a diff of two exports identifies what produced each side.
type Export struct {
	Tool    string `json:"tool"`
	Version string `json:"version,omitempty"`
	Scale   string `json:"scale,omitempty"`
	Runs    []Run  `json:"runs"`
}

// WriteJSON writes the export as indented JSON. Field and run order are
// fixed, so identical runs serialize byte-identically.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteFile writes the export to path.
func (e *Export) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := e.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile parses an export written by WriteFile.
func ReadFile(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	var e Export
	if err := json.NewDecoder(f).Decode(&e); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %w", path, err)
	}
	return &e, nil
}
