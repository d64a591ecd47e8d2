package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"pipette/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	reqs := []workload.Request{
		{Off: 0, Size: 128},
		{Off: 4096, Size: 64, Write: true},
		{Off: 1 << 40, Size: 4096},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(offs []uint32, sizes []uint16, writes []bool) bool {
		n := len(offs)
		if len(sizes) < n {
			n = len(sizes)
		}
		if len(writes) < n {
			n = len(writes)
		}
		var reqs []workload.Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, workload.Request{
				Off: int64(offs[i]), Size: int(sizes[i]) + 1, Write: writes[i],
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if err := w.Append(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(reqs) {
			return false
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidRequestsRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(workload.Request{Off: -1, Size: 10}); err == nil {
		t.Error("negative offset accepted")
	}
	if err := w.Append(workload.Request{Off: 0, Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	// A size past 32 bits used to be truncated into the record.
	big := int64(math.MaxUint32) + 1
	if err := w.Append(workload.Request{Off: 0, Size: int(big)}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("Append of size 2^32 = %v, want ErrBadRecord", err)
	}
	if w.Count() != 0 {
		t.Errorf("%d invalid requests counted", w.Count())
	}
}

// TestBadRecordRejected: Next refuses every record Append would not have
// written: an unknown op, a nonzero pad byte, a zero size, and an offset
// of 2^63 or more, which would decode as negative.
func TestBadRecordRejected(t *testing.T) {
	good := [recordSize]byte{opWrite, 0, 0, 16, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0}
	for name, edit := range map[string]func(*[recordSize]byte){
		"op":     func(b *[recordSize]byte) { b[0] = 2 },
		"pad":    func(b *[recordSize]byte) { b[1] = 1 },
		"size 0": func(b *[recordSize]byte) { binary.LittleEndian.PutUint32(b[10:], 0) },
		"off":    func(b *[recordSize]byte) { b[9] = 0x80 },
	} {
		rec := good
		edit(&rec)
		data := append([]byte("PIPTRC\x01\x00"), good[:]...)
		data = append(data, rec[:]...)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if req, err := r.Next(); err != nil || req != (workload.Request{Write: true, Off: 4096, Size: 128}) {
			t.Fatalf("%s: the good record read as %+v, %v", name, req, err)
		}
		if req, err := r.Next(); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: Next = %+v, %v, want ErrBadRecord", name, req, err)
		}
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("empty err = %v", err)
	}
	// Wrong version.
	bad := append([]byte("PIPTRC"), 0x63, 0x00)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("version err = %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(workload.Request{Off: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(workload.Request{Off: 4096, Size: 16}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3]

	// Next on the partial record must report ErrTruncated, not io.EOF:
	// a reader that stops at EOF would silently accept the corrupt file.
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first (complete) record err = %v", err)
	}
	_, err = r.Next()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated read err = %v, want ErrTruncated", err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatalf("truncated read err %v wraps io.EOF, masking corruption", err)
	}

	// ReadAll must surface the corruption rather than return a short trace.
	if _, err := ReadAll(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAll on truncated trace err = %v, want ErrTruncated", err)
	}
}

func TestRecordFromGenerator(t *testing.T) {
	cfg := workload.Mixes(1<<20, 4096, workload.Uniform, 5)[4]
	gen, err := workload.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, gen, 100); err != nil {
		t.Fatal(err)
	}
	reqs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 100 {
		t.Fatalf("recorded %d", len(reqs))
	}
	// Same-seed generator reproduces the trace.
	gen2, _ := workload.NewSynthetic(cfg)
	for i, r := range reqs {
		if want := gen2.Next(); r != want {
			t.Fatalf("record %d: %+v != %+v", i, r, want)
		}
	}
}

func TestReplayer(t *testing.T) {
	reqs := []workload.Request{{Off: 0, Size: 128}, {Off: 4096, Size: 64}}
	r, err := NewReplayer("test", 1<<20, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "trace:test" || r.FileSize() != 1<<20 {
		t.Fatalf("replayer metadata wrong")
	}
	// Cycles.
	for i := 0; i < 5; i++ {
		if got := r.Next(); got != reqs[i%2] {
			t.Fatalf("replay %d: %+v", i, got)
		}
	}
	// Validation.
	if _, err := NewReplayer("x", 100, reqs); err == nil {
		t.Error("out-of-file trace accepted")
	}
	if _, err := NewReplayer("x", 100, nil); err == nil {
		t.Error("empty trace accepted")
	}
	for _, bad := range []workload.Request{
		{Off: 0, Size: 0},
		{Off: 64, Size: -1},
		{Off: math.MaxInt64 - 8, Size: 64}, // Off+Size overflows
	} {
		if _, err := NewReplayer("x", 1<<20, []workload.Request{bad}); err == nil {
			t.Errorf("request %+v accepted", bad)
		}
	}
}

// TestSummarize pins the per-op accounting and the exact (nearest-rank)
// size percentiles the info subcommand prints.
func TestSummarize(t *testing.T) {
	var reqs []workload.Request
	// 100 reads sized 1..100 at consecutive offsets; 2 writes of 4096.
	off := int64(0)
	for i := 1; i <= 100; i++ {
		reqs = append(reqs, workload.Request{Off: off, Size: i})
		off += int64(i)
	}
	reqs = append(reqs,
		workload.Request{Write: true, Off: off, Size: 4096},
		workload.Request{Write: true, Off: off + 4096, Size: 4096})

	s := Summarize(reqs)
	if s.Requests != 102 || s.Distinct != 101 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if want := off + 8192; s.Extent != want {
		t.Fatalf("extent %d, want %d", s.Extent, want)
	}
	if len(s.Ops) != 2 || s.Ops[0].Op != "read" || s.Ops[1].Op != "write" {
		t.Fatalf("op order wrong: %+v", s.Ops)
	}
	r := s.Ops[0]
	if r.Count != 100 || r.Bytes != 5050 || r.P50 != 50 || r.P99 != 99 || r.Max != 100 {
		t.Fatalf("read summary wrong: %+v", r)
	}
	w := s.Ops[1]
	if w.Count != 2 || w.Bytes != 8192 || w.P50 != 4096 || w.P99 != 4096 || w.Max != 4096 {
		t.Fatalf("write summary wrong: %+v", w)
	}

	// Single-element and empty streams must not panic.
	one := Summarize(reqs[:1])
	if one.Ops[0].P50 != 1 || one.Ops[0].P99 != 1 || one.Ops[0].Max != 1 {
		t.Fatalf("single-request percentiles wrong: %+v", one.Ops[0])
	}
	if empty := Summarize(nil); empty.Requests != 0 || len(empty.Ops) != 0 {
		t.Fatalf("empty summary wrong: %+v", empty)
	}
}

// FuzzTraceReader: arbitrary bytes never panic ReadAll, which returns
// ErrBadHeader, ErrTruncated, ErrBadRecord or requests; the Writer takes
// back every request read, and they read back unchanged.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	w, err := NewWriter(&valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []workload.Request{{Off: 0, Size: 128}, {Off: 4096, Size: 64, Write: true}, {Off: 1 << 40, Size: 4096}} {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	hdr := valid.Bytes()[:8]
	f.Add([]byte{})
	f.Add(bytes.Clone(hdr))
	f.Add(bytes.Clone(valid.Bytes()))
	f.Add(valid.Bytes()[:valid.Len()-5])                          // torn last record
	f.Add(append([]byte("PIPTRC\x02\x00"), valid.Bytes()[8:]...)) // unknown version
	// A non-canonical op and pad byte, then a zero size and an offset past 2^63.
	f.Add(append(bytes.Clone(hdr), 7, 9, 1, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadHeader) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("ReadAll: %v, want ErrBadHeader, ErrTruncated or ErrBadRecord", err)
			}
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if err := w.Append(r); err != nil {
				t.Fatalf("Append(%+v) of a request read: %v", r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(&buf)
		if err != nil || len(back) != len(reqs) {
			t.Fatalf("reading back %d requests: %d, %v", len(reqs), len(back), err)
		}
		for i := range reqs {
			if back[i] != reqs[i] {
				t.Fatalf("request %d: wrote %+v, read back %+v", i, reqs[i], back[i])
			}
		}
	})
}
