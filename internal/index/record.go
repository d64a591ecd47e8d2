package index

import (
	"encoding/binary"
	"hash/crc32"
)

// LSM runs reuse the value-log segment record format (bitcask-style), with
// the 16-byte encoded Loc as the record's value:
//
//	[0]     magic (recMagic)
//	[1]     flags (bit 0: tombstone)
//	[2:4]   key length, uint16 LE
//	[4:8]   value length, uint32 LE
//	[8:12]  CRC-32C checksum over bytes [1:8] ++ key ++ value
//	[12:]   key, then value
//
// Sharing the format means the same torn-tail/bit-flip reasoning applies: a
// truncated or damaged run fails its checksums instead of decoding into a
// wrong Loc. (The constants mirror internal/kv's segment codec; the store
// sits above this package, so the bytes are defined here.)
const (
	recMagic   = 0xC5
	recHdrSize = 12

	recFlagTombstone = 1 << 0

	locBytes = 16 // seg u32 ++ off u64 ++ vallen u32
)

// castagnoli is the CRC-32C table; hash/crc32 recognises it and runs the
// SSE4.2 instruction on amd64 (and the CRC32 instructions on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of head ++ body: the checksum of every persisted
// record this package and the KV value log write (value-log records, run
// records, B+-tree nodes). Each format's checked header fields and its
// payload are not adjacent (the checksum field sits between them), hence
// two sections.
func Checksum(head, body []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head), castagnoli, body)
}

// recSize is a run record's on-file footprint for a key with a Loc value.
func recSize(keyLen int) int { return recHdrSize + keyLen + locBytes }

// encodeLoc renders l into dst[:locBytes].
func encodeLoc(dst []byte, l Loc) {
	binary.LittleEndian.PutUint32(dst[0:4], l.Seg)
	binary.LittleEndian.PutUint64(dst[4:12], uint64(l.Off))
	binary.LittleEndian.PutUint32(dst[12:16], l.ValLen)
}

func decodeLoc(b []byte) Loc {
	return Loc{
		Seg:    binary.LittleEndian.Uint32(b[0:4]),
		Off:    int64(binary.LittleEndian.Uint64(b[4:12])),
		ValLen: binary.LittleEndian.Uint32(b[12:16]),
	}
}

// appendRunRecord appends one encoded run record to dst.
func appendRunRecord(dst, key []byte, l Loc, tombstone bool) []byte {
	base := len(dst)
	sz := recSize(len(key))
	for cap(dst) < base+sz {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:base+sz]
	b := dst[base:]
	b[0] = recMagic
	b[1] = 0
	if tombstone {
		b[1] = recFlagTombstone
	}
	binary.LittleEndian.PutUint16(b[2:4], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[4:8], locBytes)
	copy(b[recHdrSize:], key)
	encodeLoc(b[recHdrSize+len(key):], l)
	binary.LittleEndian.PutUint32(b[8:12], Checksum(b[1:8], b[recHdrSize:sz]))
	return dst
}

// parseRunRecord decodes one run record at b[0:]; ok=false means no record
// starts here (block padding or damage). key is a view into b, so a caller
// that only compares it allocates nothing; one that keeps it copies it.
func parseRunRecord(b []byte) (key []byte, l Loc, tombstone bool, size int, ok bool) {
	if len(b) < recHdrSize || b[0] != recMagic {
		return nil, Loc{}, false, 0, false
	}
	if b[1]&^byte(recFlagTombstone) != 0 {
		return nil, Loc{}, false, 0, false
	}
	klen := int(binary.LittleEndian.Uint16(b[2:4]))
	vlen := int(binary.LittleEndian.Uint32(b[4:8]))
	if klen == 0 || vlen != locBytes || recSize(klen) > len(b) {
		return nil, Loc{}, false, 0, false
	}
	sz := recSize(klen)
	if Checksum(b[1:8], b[recHdrSize:sz]) != binary.LittleEndian.Uint32(b[8:12]) {
		return nil, Loc{}, false, 0, false
	}
	return b[recHdrSize : recHdrSize+klen],
		decodeLoc(b[recHdrSize+klen : sz]),
		b[1]&recFlagTombstone != 0,
		sz, true
}
