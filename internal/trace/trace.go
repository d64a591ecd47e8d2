// Package trace records and replays workload request streams in a compact
// binary format, so experiments can be repeated bit-exactly, inspected, or
// exchanged: generate once with cmd/pipette-trace, replay anywhere.
//
// Format: an 8-byte header ("PIPTRC" + 2-byte version), then one 14-byte
// little-endian record per request: op(1) pad(1) off(8) size(4).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"pipette/internal/workload"
)

var magic = [6]byte{'P', 'I', 'P', 'T', 'R', 'C'}

// Version of the on-disk format.
const Version uint16 = 1

const recordSize = 14

// Op codes.
const (
	opRead  byte = 0
	opWrite byte = 1
)

// ErrBadRecord reports a record outside the format: an op other than read
// or write, a nonzero pad byte, a size of 0 or above maxSize, or a
// negative offset. Append refuses such a request and Next such a record.
var ErrBadRecord = errors.New("trace: bad record")

// maxSize is the largest request size: the record's 32 bits, or an int's
// where that is narrower.
const maxSize = min(math.MaxUint32, math.MaxInt)

// checkRecord is the format's one rule, which Append applies before it
// encodes a request and Next after it decodes a record.
func checkRecord(op, pad byte, off, size int64) error {
	if op > opWrite || pad != 0 || size <= 0 || size > maxSize || off < 0 {
		return fmt.Errorf("%w: op %d pad %d off %d size %d", ErrBadRecord, op, pad, off, size)
	}
	return nil
}

// Writer streams requests to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	if _, err := bw.Write(v[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Append records one request; ErrBadRecord if the format cannot hold it.
func (w *Writer) Append(r workload.Request) error {
	var buf [recordSize]byte
	if r.Write {
		buf[0] = opWrite
	}
	if err := checkRecord(buf[0], 0, r.Off, int64(r.Size)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[2:], uint64(r.Off))
	binary.LittleEndian.PutUint32(buf[10:], uint32(r.Size))
	_, err := w.w.Write(buf[:])
	if err == nil {
		w.count++
	}
	return err
}

// Count reports appended records.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams requests from an io.Reader.
type Reader struct {
	r *bufio.Reader
}

// ErrBadHeader reports a stream that is not a trace.
var ErrBadHeader = errors.New("trace: bad header")

// ErrTruncated reports a trace that ends mid-record — a corrupt or
// incomplete file. It is distinct from io.EOF (clean end after the last
// record) so ReadAll surfaces corruption instead of silently returning a
// short result.
var ErrTruncated = errors.New("trace: truncated record")

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	for i, b := range magic {
		if hdr[i] != b {
			return nil, ErrBadHeader
		}
	}
	if v := binary.LittleEndian.Uint16(hdr[6:]); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadHeader, v)
	}
	return &Reader{r: br}, nil
}

// Next reads one request; io.EOF after the last, ErrBadRecord for a record
// Append would not have written.
func (r *Reader) Next() (workload.Request, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return workload.Request{}, fmt.Errorf("%w (partial trailing record)", ErrTruncated)
		}
		return workload.Request{}, err
	}
	off := int64(binary.LittleEndian.Uint64(buf[2:]))
	size := int64(binary.LittleEndian.Uint32(buf[10:]))
	if err := checkRecord(buf[0], buf[1], off, size); err != nil {
		return workload.Request{}, err
	}
	return workload.Request{Write: buf[0] == opWrite, Off: off, Size: int(size)}, nil
}

// ReadAll slurps a whole trace.
func ReadAll(r io.Reader) ([]workload.Request, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []workload.Request
	for {
		req, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
}

// OpSummary is one op type's share of a request stream, with exact
// request-size percentiles (nearest-rank over the sorted sizes — no
// bucketing, the stream is fully in memory).
type OpSummary struct {
	Op    string // "read" or "write"
	Count int
	Bytes int64
	P50   int // request-size percentiles, bytes
	P99   int
	Max   int
}

// Summary describes a request stream: totals plus per-op-type size stats.
type Summary struct {
	Requests int
	Bytes    int64
	Extent   int64 // highest byte touched + 1
	Distinct int   // distinct request sizes across all ops
	Ops      []OpSummary
}

// Summarize computes a stream's Summary. Op types with no requests are
// omitted; present types appear in read-then-write order.
func Summarize(reqs []workload.Request) Summary {
	var s Summary
	s.Requests = len(reqs)
	distinct := make(map[int]struct{})
	var sizes [2][]int // by op: read, write
	var bytes [2]int64
	for _, r := range reqs {
		op := 0
		if r.Write {
			op = 1
		}
		sizes[op] = append(sizes[op], r.Size)
		bytes[op] += int64(r.Size)
		s.Bytes += int64(r.Size)
		distinct[r.Size] = struct{}{}
		if end := r.Off + int64(r.Size); end > s.Extent {
			s.Extent = end
		}
	}
	s.Distinct = len(distinct)
	for op, name := range []string{"read", "write"} {
		n := len(sizes[op])
		if n == 0 {
			continue
		}
		sort.Ints(sizes[op])
		s.Ops = append(s.Ops, OpSummary{
			Op:    name,
			Count: n,
			Bytes: bytes[op],
			P50:   nearestRank(sizes[op], 50),
			P99:   nearestRank(sizes[op], 99),
			Max:   sizes[op][n-1],
		})
	}
	return s
}

// nearestRank returns the pth percentile of sorted (ascending) values by
// the nearest-rank definition: the smallest value with at least p% of the
// sample at or below it.
func nearestRank(sorted []int, p int) int {
	rank := (len(sorted)*p + 99) / 100 // ceil(n*p/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Record captures n requests from a generator into w.
func Record(w io.Writer, gen workload.Generator, n int) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tw.Append(gen.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replayer adapts a recorded trace to the workload.Generator interface.
// Next cycles when the trace is exhausted.
type Replayer struct {
	name     string
	fileSize int64
	reqs     []workload.Request
	pos      int
}

// NewReplayer wraps recorded requests. fileSize must cover every request.
func NewReplayer(name string, fileSize int64, reqs []workload.Request) (*Replayer, error) {
	if len(reqs) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	for i, r := range reqs {
		// Off <= fileSize, so fileSize-r.Off cannot overflow.
		if r.Size <= 0 || r.Off < 0 || r.Off > fileSize || int64(r.Size) > fileSize-r.Off {
			return nil, fmt.Errorf("trace: request %d [%d,+%d) outside file %d", i, r.Off, r.Size, fileSize)
		}
	}
	return &Replayer{name: name, fileSize: fileSize, reqs: reqs}, nil
}

// Name implements workload.Generator.
func (r *Replayer) Name() string { return "trace:" + r.name }

// FileSize implements workload.Generator.
func (r *Replayer) FileSize() int64 { return r.fileSize }

// Next implements workload.Generator, cycling at the end.
func (r *Replayer) Next() workload.Request {
	req := r.reqs[r.pos]
	r.pos = (r.pos + 1) % len(r.reqs)
	return req
}
