package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// memFile and memBackend hold segment files in host memory, so a fuzz
// input recovers in microseconds, without a storage stack underneath.
type memFile struct{ data []byte }

func (f *memFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	return copy(buf, f.data[off:]), now, nil
}

func (f *memFile) WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	return copy(f.data[off:], data), now, nil
}

func (f *memFile) Sync(now sim.Time) (sim.Time, error) { return now, nil }
func (f *memFile) Close() error                        { return nil }
func (f *memFile) Size() int64                         { return int64(len(f.data)) }

type memBackend map[string]*memFile

func (b memBackend) Create(name string, size int64) (BackendFile, error) {
	f := &memFile{data: make([]byte, size)}
	b[name] = f
	return f, nil
}

func (b memBackend) open(name string) (BackendFile, error) {
	f, ok := b[name]
	if !ok {
		return nil, fmt.Errorf("no file %s", name)
	}
	return f, nil
}

func (b memBackend) OpenReader(name string, _ bool) (BackendFile, error) { return b.open(name) }
func (b memBackend) OpenDirect(name string) (BackendFile, error)         { return b.open(name) }
func (b memBackend) OpenWriter(name string) (BackendFile, error)         { return b.open(name) }
func (b memBackend) Remove(name string) error                            { delete(b, name); return nil }
func (b memBackend) PageSize() int                                       { return 4096 }

func (b memBackend) Files() []string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// fuzzSegBytes is the segment size the fuzz target recovers images as:
// more than one log reader window, so records can straddle a window end.
const fuzzSegBytes = compactWindow + 8<<10

// recoverImage opens a store over one segment that holds img, as Open
// after a crash would find it.
func recoverImage(t *testing.T, img []byte) *Store {
	t.Helper()
	cfg := Config{SegmentBytes: int64(len(img))}
	cfg.setDefaults()
	be := memBackend{segName(cfg.NamePrefix, 1): &memFile{data: img}}
	s, _, err := Open(0, be, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// oracleRecord reports whether a whole record starts at off of img: its
// header fields are in range and it re-encodes, checksum included, to the
// very bytes at off.
func oracleRecord(img []byte, off int) (key string, val []byte, tomb, ok bool) {
	if off+headerSize > len(img) || img[off] != recordMagic || img[off+1]&^flagTombstone != 0 {
		return "", nil, false, false
	}
	kl := int(binary.LittleEndian.Uint16(img[off+2:]))
	vl := int64(binary.LittleEndian.Uint32(img[off+4:]))
	if kl == 0 || kl > MaxKeyLen || int64(off)+recordSize(kl, 0)+vl > int64(len(img)) {
		return "", nil, false, false
	}
	sz := int(recordSize(kl, int(vl)))
	if index.Checksum(img[off+1:off+8], img[off+headerSize:off+sz]) != binary.LittleEndian.Uint32(img[off+8:]) {
		return "", nil, false, false
	}
	key = string(img[off+headerSize : off+headerSize+kl])
	val, tomb = img[off+headerSize+kl:off+sz], img[off+1] == flagTombstone
	return key, val, tomb, bytes.Equal(encodeRecord(nil, key, val, tomb), img[off:off+sz])
}

// checkAgainstOracle recovers a segment holding image at offset at, zeros
// around it, and compares the store with a naive replay: try every offset
// in turn, apply each whole record, and count a run of bytes between
// records as one skip. The store must hold exactly the oracle's keys at
// the oracle's offsets, end its log where the oracle's last record ends,
// and count the same records and skips.
func checkAgainstOracle(t *testing.T, image []byte, at int) *Store {
	t.Helper()
	img := make([]byte, fuzzSegBytes)
	copy(img[at:], image)
	s := recoverImage(t, bytes.Clone(img))
	want := map[string]index.Loc{}
	var recovered, skips, skipped uint64
	end := 0
	for off := 0; off < len(img); {
		if i := bytes.IndexByte(img[off:], recordMagic); i < 0 {
			break
		} else {
			off += i
		}
		key, val, tomb, ok := oracleRecord(img, off)
		if !ok {
			off++
			continue
		}
		if off > end {
			skips++
			skipped += uint64(off - end)
		}
		if tomb {
			delete(want, key)
		} else {
			want[key] = index.Loc{Seg: 1, Off: int64(off), ValLen: uint32(len(val))}
		}
		recovered++
		off += headerSize + len(key) + len(val)
		end = off
	}
	st := s.Stats()
	if st.Recovered != recovered || st.CorruptSkips != skips || st.SkippedBytes != skipped {
		t.Fatalf("recovered %d records, %d skips of %d bytes; the oracle %d, %d of %d",
			st.Recovered, st.CorruptSkips, st.SkippedBytes, recovered, skips, skipped)
	}
	if tail := s.segs[1].tail; tail != int64(end) {
		t.Fatalf("log tail %d, the oracle's last record ends at %d", tail, end)
	}
	if s.Len() != len(want) {
		t.Fatalf("%d live keys, the oracle %d", s.Len(), len(want))
	}
	for key, l := range want {
		slot, ok := s.acct[key]
		if !ok || s.locs[slot] != l {
			t.Fatalf("key %q at %+v (present %v), the oracle at %+v", key, s.locs[slot], ok, l)
		}
	}
	return s
}

// fuzzLog renders records drawn from data into a log: each takes a key
// length, a tombstone bit and a value length from three bytes, then its
// key and value bytes. Keys come from a small alphabet, so they repeat.
// Key and value bytes avoid zero and the magic byte, so no record's bytes
// hold another record and truncating one always changes its bytes. It
// returns the log and each record's end offset.
func fuzzLog(data []byte) (log []byte, ends []int) {
	for len(data) >= 3 {
		kl, tomb, vl := 1+int(data[0]%8), data[1]&1 == 1, int(data[2])
		data = data[3:]
		if tomb {
			vl = 0
		}
		rec := make([]byte, kl+vl)
		for i := range rec {
			b := byte(i)
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			if i < kl {
				b = 'a' + b%4
			} else if b == 0 || b == recordMagic {
				b = 'z'
			}
			rec[i] = b
		}
		enc := encodeRecord(nil, string(rec[:kl]), rec[kl:], tomb)
		if len(log)+len(enc) > fuzzSegBytes {
			break
		}
		log = append(log, enc...)
		ends = append(ends, len(log))
	}
	return log, ends
}

// FuzzLogSegment recovers fuzzed byte images as value-log segments, once
// at the segment's start and once across the end of the log reader's
// first window. Recovery never panics and agrees with a naive replay that
// accepts a record only where its bytes re-encode, checksum included, to
// themselves. A log of whole records torn inside its last one recovers
// exactly the records before the tear, as a torn tail: no skip, the log
// ends where they end.
func FuzzLogSegment(f *testing.F) {
	var valid []byte
	for i := 0; i < 40; i++ {
		valid = append(valid, encodeRecord(nil, fmt.Sprintf("k%d", i%7), testVal("k", i), i%9 == 8)...)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add([]byte{})
	f.Add(valid)
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid[:len(valid)-5]), 0xC5, 0, 3, 0, 0, 0, 0, 0))
	f.Add(bytes.Repeat([]byte{recordMagic, 0, 1, 0}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzSegBytes {
			data = data[:fuzzSegBytes]
		}
		checkAgainstOracle(t, data, 0)
		checkAgainstOracle(t, data, compactWindow-len(data)/2)

		log, ends := fuzzLog(data)
		if len(ends) == 0 {
			return
		}
		// Tear the log inside its last record, at a point the input picks.
		whole := 0
		if len(ends) > 1 {
			whole = ends[len(ends)-2]
		}
		cut := whole + int(data[0])%(ends[len(ends)-1]-whole)
		s := checkAgainstOracle(t, log[:cut], 0)
		if st := s.Stats(); st.Recovered != uint64(len(ends)-1) || st.CorruptSkips != 0 || s.segs[1].tail != int64(whole) {
			t.Fatalf("a log of %d whole records torn at %d recovered %d records with %d skips, tail %d; want %d, 0, %d",
				len(ends)-1, cut, st.Recovered, st.CorruptSkips, s.segs[1].tail, len(ends)-1, whole)
		}
	})
}
