package index

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// An LSM run is a sequence of BlockBytes blocks in the LevelDB table-block
// style: sorted records with their keys prefix-compressed against the
// previous record, and one checksum over the whole block.
//
//	[0:4]   CRC-32C over bytes [4:BlockBytes], uint32 LE
//	[4:6]   record count, uint16 LE
//	[6:]    records, then zero padding to BlockBytes
//
// Each record is
//
//	shared uvarint    bytes of the previous key this key starts with
//	unshared uvarint  length of the suffix that follows
//	flags u8          bit 0: tombstone
//	suffix            the key's bytes after the shared prefix
//	seg, off, vallen  the Loc, each a uvarint
//
// The first record of a block shares nothing, so the block's first key is
// whole and is its fence. Records never straddle blocks. The checksum
// covers the padding too, so any damaged byte fails the block: a block is
// verified once, when it is read from the device, and searched without
// checksum work afterwards.
const (
	blockHdrSize = 6

	recFlagTombstone = 1 << 0

	// maxLocBytes is the largest varint encoding of a Loc.
	maxLocBytes = binary.MaxVarintLen32 + binary.MaxVarintLen64 + binary.MaxVarintLen32
)

// castagnoli is the CRC-32C table; hash/crc32 recognises it and runs the
// SSE4.2 instruction on amd64 (and the CRC32 instructions on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of head ++ body: the checksum of every persisted
// record this package and the KV value log write (value-log records, run
// blocks, B+-tree nodes). A format's checked header fields and its payload
// need not be adjacent (the checksum field may sit between them), hence
// two sections.
func Checksum(head, body []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head), castagnoli, body)
}

// keyFits reports whether a key of keyLen bytes fits a block as its first
// record with the largest Loc encoding: the longest a record of it can be.
func keyFits(keyLen int) bool {
	return blockHdrSize+1+uvarintLen(uint64(keyLen))+1+keyLen+maxLocBytes <= BlockBytes
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// blockWriter packs a sorted record stream into sealed blocks, appended to
// buf. Keys must ascend strictly and fit a block (keyFits).
type blockWriter struct {
	buf   []byte
	start int    // the open block's offset in buf; -1 when none is open
	count int    // records in the open block
	prev  []byte // the open block's last key
}

// reset starts an empty run over buf's storage.
func (w *blockWriter) reset(buf []byte) {
	w.buf, w.start, w.count, w.prev = buf[:0], -1, 0, w.prev[:0]
}

// add appends one record and reports whether it opened a new block, that
// is, whether key is a fence.
func (w *blockWriter) add(key []byte, l Loc, tomb bool) bool {
	shared := 0
	if w.start >= 0 {
		shared = commonPrefix(w.prev, key)
	}
	unshared := len(key) - shared
	size := uvarintLen(uint64(shared)) + uvarintLen(uint64(unshared)) + 1 + unshared +
		uvarintLen(uint64(l.Seg)) + uvarintLen(uint64(l.Off)) + uvarintLen(uint64(l.ValLen))
	opened := false
	if w.start < 0 || len(w.buf)-w.start+size > BlockBytes {
		w.seal()
		w.start, w.count, opened = len(w.buf), 0, true
		shared, unshared = 0, len(key)
		w.buf = appendZeros(w.buf, blockHdrSize)
	}
	b := binary.AppendUvarint(w.buf, uint64(shared))
	b = binary.AppendUvarint(b, uint64(unshared))
	var flags byte
	if tomb {
		flags = recFlagTombstone
	}
	b = append(b, flags)
	b = append(b, key[shared:]...)
	b = binary.AppendUvarint(b, uint64(l.Seg))
	b = binary.AppendUvarint(b, uint64(l.Off))
	w.buf = binary.AppendUvarint(b, uint64(l.ValLen))
	w.count++
	w.prev = append(w.prev[:0], key...)
	return opened
}

// seal pads the open block, if any, and writes its count and checksum.
func (w *blockWriter) seal() {
	if w.start < 0 {
		return
	}
	w.buf = appendZeros(w.buf, w.start+BlockBytes-len(w.buf))
	b := w.buf[w.start:]
	binary.LittleEndian.PutUint16(b[4:6], uint16(w.count))
	binary.LittleEndian.PutUint32(b[0:4], Checksum(b[4:blockHdrSize], b[blockHdrSize:]))
	w.start = -1
}

// appendZeros appends n zero bytes to b. (The compiler turns append(b,
// make([]byte, n)...) into the same, but not in race builds.)
func appendZeros(b []byte, n int) []byte {
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	clear(b[len(b)-n:])
	return b
}

// finish seals the last block and returns the run's bytes, a whole number
// of blocks.
func (w *blockWriter) finish() []byte {
	w.seal()
	return w.buf
}

var (
	errBlockChecksum = errors.New("checksum mismatch")
	errBlockRecords  = errors.New("malformed records")
)

// verifyBlock checks a block read from the device against its checksum.
// Only verified blocks are searched or cached. Their records are decoded
// with bounds checks all the same, and a record that does not decode is
// errBlockRecords: only a block written with a forged checksum has one.
func verifyBlock(b []byte) error {
	if len(b) != BlockBytes || Checksum(b[4:blockHdrSize], b[blockHdrSize:]) != binary.LittleEndian.Uint32(b[0:4]) {
		return errBlockChecksum
	}
	return nil
}

// blockRecords returns a block's record count and its records' bytes.
func blockRecords(block []byte) (int, []byte) {
	if len(block) < blockHdrSize {
		return 0, nil
	}
	return int(binary.LittleEndian.Uint16(block[4:6])), block[blockHdrSize:]
}

// parseRecord parses the record that starts b. It returns how many bytes
// of the previous key the record's key starts with, where the rest of its
// key starts in b, where its Loc's varints start (the key's end), its
// tombstone flag and its length; size is 0 when no record parses there.
// Offsets, not slices, so that the results stay in registers.
func parseRecord(b []byte) (shared, suffix, loc, size int, tomb bool) {
	sh, n := binary.Uvarint(b)
	if n <= 0 || sh > BlockBytes {
		return 0, 0, 0, 0, false
	}
	p := n
	unshared, n := binary.Uvarint(b[p:])
	p += n
	if n <= 0 || p >= len(b) || unshared > uint64(len(b)-p-1) || b[p]&^byte(recFlagTombstone) != 0 {
		return 0, 0, 0, 0, false
	}
	tomb = b[p] != 0
	suffix = p + 1
	loc = suffix + int(unshared)
	// The Loc: three varints, whose last bytes have the top bit clear.
	if loc+8 <= len(b) {
		ends := ^binary.LittleEndian.Uint64(b[loc:]) & 0x8080808080808080
		ends &= ends - 1 // drop the first two
		ends &= ends - 1
		if ends != 0 {
			return int(sh), suffix, loc, loc + bits.TrailingZeros64(ends)/8 + 1, tomb
		}
	}
	for i, n := loc, 0; i < len(b); i++ { // a long Loc, or the block's end
		if b[i] < 0x80 {
			if n++; n == 3 {
				return int(sh), suffix, loc, i + 1, tomb
			}
		}
	}
	return 0, 0, 0, 0, false
}

// decodeLoc decodes a record's Loc varints; ok=false when they do not
// decode.
func decodeLoc(b []byte) (l Loc, ok bool) {
	var v [3]uint64
	for i := range v {
		var n int
		if v[i], n = binary.Uvarint(b); n <= 0 {
			return Loc{}, false
		}
		b = b[n:]
	}
	if v[0] > math.MaxUint32 || v[2] > math.MaxUint32 {
		return Loc{}, false
	}
	return Loc{Seg: uint32(v[0]), Off: int64(v[1]), ValLen: uint32(v[2])}, true
}

// blockIter decodes one block's records in order, rebuilding each key in
// a buffer of its own. It leaves a record's Loc encoded until asked (loc).
type blockIter struct {
	b     []byte // the records not yet decoded
	left  int    // how many they are
	first bool   // no record decoded yet
	tomb  bool
	locb  []byte // the current record's Loc varints
	klen  int
	kbuf  [BlockBytes]byte // a key shares a block with its record
}

// key is the current record's key: a view valid until the next call.
func (it *blockIter) key() []byte { return it.kbuf[:it.klen] }

// loc decodes the current record's Loc.
func (it *blockIter) loc() (Loc, bool) { return decodeLoc(it.locb) }

// reset positions the iterator before block's first record.
func (it *blockIter) reset(block []byte) {
	it.left, it.b = blockRecords(block)
	it.first, it.klen = true, 0
}

// next decodes the next record. It returns false after the last one, and
// at a record that does not parse or does not sort after the previous
// key; then left stays above zero.
func (it *blockIter) next() bool {
	if it.left == 0 {
		return false
	}
	shared, sfx, loc, size, tomb := parseRecord(it.b)
	if size == 0 {
		return false
	}
	suffix := it.b[sfx:loc]
	// Keys ascend strictly and shared is the longest common prefix, so the
	// first new byte exceeds the previous key's byte at that place; only a
	// block's first key may be empty.
	if shared > it.klen ||
		shared < it.klen && (len(suffix) == 0 || suffix[0] <= it.kbuf[shared]) ||
		shared == it.klen && len(suffix) == 0 && !it.first ||
		shared+len(suffix) > len(it.kbuf) {
		return false
	}
	it.klen = shared + copy(it.kbuf[shared:], suffix)
	it.tomb, it.locb, it.first = tomb, it.b[loc:size], false
	it.b = it.b[size:]
	it.left--
	return true
}
