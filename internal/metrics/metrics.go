// Package metrics collects the measurements the paper's evaluation reports:
// I/O traffic over the host interface, per-cache hit ratios, request latency
// distributions, and throughput derived from virtual time.
//
// All types here are plain accumulators; they are not safe for concurrent
// use (the simulator is single-threaded by design for determinism).
package metrics

import (
	"fmt"
	"math/bits"
	"strings"

	"pipette/internal/sim"
)

// IO accumulates host-interface traffic, split by direction and by the path
// that caused it. "Traffic" is the paper's metric: bytes moved across the
// PCIe link between the device and host memory, regardless of how many of
// those bytes the application asked for.
type IO struct {
	BytesRequested   uint64 // bytes the application asked to read
	BytesTransferred uint64 // bytes moved device -> host (read traffic)
	BytesWritten     uint64 // bytes moved host -> device (write traffic)

	BlockReads uint64 // block-interface read commands issued to the device
	FineReads  uint64 // fine-grained (byte-interface) commands issued
	Writes     uint64 // write commands issued
}

// ReadAmplification reports transferred/requested; 0 if nothing requested.
func (io *IO) ReadAmplification() float64 {
	if io.BytesRequested == 0 {
		return 0
	}
	return float64(io.BytesTransferred) / float64(io.BytesRequested)
}

// TrafficMB reports read traffic in binary megabytes, matching the paper's
// MB tables (2.5e6 * 4096 B renders as 9765.6, as in Table 2).
func (io *IO) TrafficMB() float64 {
	return float64(io.BytesTransferred) / (1 << 20)
}

// Cache accumulates hit/access counts for one cache (page cache or the
// fine-grained read cache).
type Cache struct {
	Hits     uint64
	Accesses uint64

	Insertions uint64
	Evictions  uint64
	Bypasses   uint64 // reads served via TempBuf / not admitted
}

// HitRatio reports hits/accesses; 0 if never accessed.
func (c *Cache) HitRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Record notes one access and whether it hit.
func (c *Cache) Record(hit bool) {
	c.Accesses++
	if hit {
		c.Hits++
	}
}

// Histogram is a log2-bucketed latency histogram over virtual time.
// Bucket i covers [2^i, 2^(i+1)) nanoseconds; bucket 0 covers [0, 2).
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
}

// Observe records one latency sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[log2Bucket(uint64(d))]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// log2Bucket is floor(log2(v)), with 0 for v = 0 (bucket 0 covers [0, 2)).
func log2Bucket(v uint64) int { return bits.Len64(v|1) - 1 }

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the mean latency; 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Min reports the smallest observed sample (0 with no samples).
func (h *Histogram) Min() sim.Time { return h.min }

// Max reports the largest observed sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Sum reports the total of all samples.
func (h *Histogram) Sum() sim.Time { return h.sum }

// Merge folds other's samples into h. Bucket counts, count, and sum add;
// min/max take the tighter extreme. Merging an empty histogram is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
}

// Quantile estimates the q'th quantile (q in [0,1]) from the buckets.
// The estimate is the arithmetic midpoint lo + lo/2 of the containing
// bucket [lo, 2lo), clamped
// to the observed min/max; q <= 0 and q >= 1 report the exact observed
// extremes (so single-sample histograms are exact at every q).
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum > target {
			lo := uint64(1) << uint(i)
			if i == 0 {
				lo = 0
			}
			est := sim.Time(lo + lo/2)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// Snapshot is a copyable summary of one engine run: everything a paper table
// row needs.
type Snapshot struct {
	Name string // engine name

	IO        IO
	PageCache Cache
	FineCache Cache

	Ops      uint64   // completed read/write operations
	Elapsed  sim.Time // virtual time consumed
	MeanLat  sim.Time
	P99Lat   sim.Time
	MaxLat   sim.Time
	MemoryMB float64 // resident cache memory at end of run
}

// ThroughputOpsPerSec reports operations per virtual second.
func (s *Snapshot) ThroughputOpsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Ops) / s.Elapsed.Seconds()
}

// String renders a one-line summary.
func (s *Snapshot) String() string {
	return fmt.Sprintf("%s: %d ops in %v (%.0f ops/s), traffic %.1f MB, pc %.1f%%, fgrc %.1f%%",
		s.Name, s.Ops, s.Elapsed, s.ThroughputOpsPerSec(), s.IO.TrafficMB(),
		s.PageCache.HitRatio()*100, s.FineCache.HitRatio()*100)
}

// Table formats rows of (label, values...) into an aligned text table, the
// output format of cmd/pipette-bench. Columns are right-aligned except the
// first.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; it must have len(Header) cells.
func (t *Table) AddRow(cells ...string) {
	if len(t.Header) != 0 && len(cells) != len(t.Header) {
		panic(fmt.Sprintf("metrics: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	all := make([][]string, 0, len(t.Rows)+1)
	if len(t.Header) > 0 {
		all = append(all, t.Header)
	}
	all = append(all, t.Rows...)
	if len(all) == 0 {
		return ""
	}
	widths := make([]int, len(all[0]))
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, row := range all {
		for i, c := range row {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
		if ri == 0 && len(t.Header) > 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values. Cells containing a
// comma, double quote, or line break are quoted per RFC 4180 (embedded
// quotes doubled), so arbitrary labels round-trip through CSV readers.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// csvCell quotes a cell if RFC 4180 requires it.
func csvCell(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}
