package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// Value-log record layout (bitcask-style):
//
//	[0]     magic (recordMagic)
//	[1]     flags (bit 0: tombstone)
//	[2:4]   key length, uint16 LE
//	[4:8]   value length, uint32 LE
//	[8:12]  CRC-32C checksum (index.Checksum) over bytes [1:8] ++ key ++ value
//	[12:]   key, then value
//
// The checksum makes torn tails self-delimiting: the recovery scan stops at
// the first record that fails the magic, a length sanity bound, or the
// checksum — everything before it is intact by construction (appends are
// sequential).
const (
	recordMagic = 0xC5
	headerSize  = 12

	flagTombstone = 1 << 0
)

// recordSize is the on-log footprint of a record.
func recordSize(keyLen, valLen int) int64 {
	return int64(headerSize + keyLen + valLen)
}

// encodeRecord renders one record into dst (reused across appends).
func encodeRecord(dst []byte, key string, val []byte, tombstone bool) []byte {
	sz := int(recordSize(len(key), len(val)))
	if cap(dst) < sz {
		dst = make([]byte, sz)
	}
	dst = dst[:sz]
	dst[0] = recordMagic
	dst[1] = 0
	if tombstone {
		dst[1] = flagTombstone
	}
	binary.LittleEndian.PutUint16(dst[2:4], uint16(len(key)))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(len(val)))
	copy(dst[headerSize:], key)
	copy(dst[headerSize+len(key):], val)
	binary.LittleEndian.PutUint32(dst[8:12], index.Checksum(dst[1:8], dst[headerSize:]))
	return dst
}

// recordHeader is a parsed header (not yet checksum-verified — that needs
// the payload).
type recordHeader struct {
	tombstone bool
	keyLen    int
	valLen    int
	checksum  uint32
}

// parseHeader validates the fixed fields; ok=false means "treat as end of
// log" (a torn tail, or the zeros of never-written pages).
func parseHeader(hdr []byte, maxKey int, segBytes, off int64) (recordHeader, bool) {
	if hdr[0] != recordMagic {
		return recordHeader{}, false
	}
	h := recordHeader{
		tombstone: hdr[1]&flagTombstone != 0,
		keyLen:    int(binary.LittleEndian.Uint16(hdr[2:4])),
		valLen:    int(binary.LittleEndian.Uint32(hdr[4:8])),
		checksum:  binary.LittleEndian.Uint32(hdr[8:12]),
	}
	if hdr[1]&^byte(flagTombstone) != 0 {
		return recordHeader{}, false
	}
	if h.keyLen == 0 || h.keyLen > maxKey {
		return recordHeader{}, false
	}
	if off+recordSize(h.keyLen, h.valLen) > segBytes {
		return recordHeader{}, false
	}
	return h, true
}

// segment is one value-log file.
type segment struct {
	id   uint32
	name string
	w    BackendFile // write handle; nil once sealed
	r    BackendFile // read handle (fine-grained when configured)
	tail int64       // append offset
	live int64       // bytes of records the index points at
	dead int64       // superseded records and tombstones
}

func (sg *segment) deadFrac() float64 {
	if sg.tail == 0 {
		return 0
	}
	return float64(sg.dead) / float64(sg.tail)
}

// segName renders a segment's file name; segID parses it back.
func segName(prefix string, id uint32) string {
	return fmt.Sprintf("%s%08d", prefix, id)
}

func segID(prefix, name string) (uint32, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	var id uint32
	if _, err := fmt.Sscanf(name[len(prefix):], "%d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// listSegments returns the backend's segment ids under prefix, ascending.
func listSegments(be Backend, prefix string) []uint32 {
	var ids []uint32
	for _, name := range be.Files() {
		if id, ok := segID(prefix, name); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// newSegment creates and registers the next segment file.
func (s *Store) newSegment() (*segment, error) {
	id := s.nextID
	name := segName(s.cfg.NamePrefix, id)
	w, err := s.be.Create(name, s.cfg.SegmentBytes)
	if err != nil {
		return nil, fmt.Errorf("kv: create segment %s: %w", name, err)
	}
	r, err := s.be.OpenReader(name, s.cfg.FineReads)
	if err != nil {
		return nil, fmt.Errorf("kv: open segment %s: %w", name, err)
	}
	s.nextID++
	sg := &segment{id: id, name: name, w: w, r: r}
	s.segs[id] = sg
	s.order = append(s.order, id)
	return sg, nil
}

// rotate seals the active segment (sync + close of the write handle — the
// close semantics segment churn depends on) and opens a fresh one.
func (s *Store) rotate(now sim.Time) (sim.Time, error) {
	done, err := s.active.w.Sync(now)
	if err != nil {
		return done, err
	}
	if err := s.active.w.Close(); err != nil {
		return done, err
	}
	s.active.w = nil
	s.stats.Rotations++
	sg, err := s.newSegment()
	if err != nil {
		return done, err
	}
	s.active = sg
	return done, nil
}

// appendRecord appends one encoded record to the value log, rotating first
// if it does not fit, and returns where it landed.
func (s *Store) appendRecord(now sim.Time, rec []byte) (segID uint32, off int64, done sim.Time, err error) {
	if s.active.tail+int64(len(rec)) > s.cfg.SegmentBytes {
		now, err = s.rotate(now)
		if err != nil {
			return 0, 0, now, err
		}
	}
	n, done, err := s.active.w.WriteAt(now, rec, s.active.tail)
	if err != nil {
		return 0, 0, done, err
	}
	if n != len(rec) {
		return 0, 0, done, fmt.Errorf("kv: short append %d of %d", n, len(rec))
	}
	off = s.active.tail
	s.active.tail += int64(len(rec))
	s.stats.BytesWritten += uint64(len(rec))
	return s.active.id, off, done, nil
}

// recordAt returns the record at the reader's position if one starts
// there: its header passes parseHeader for a segment of segBytes and its
// checksum matches. A nil record means none does: damage, a torn tail, or
// the zeros of never-written pages. The record is not consumed, and its
// bytes stay valid until the reader reads again.
func recordAt(now sim.Time, rd *logReader, segBytes int64) ([]byte, recordHeader, sim.Time, error) {
	off := rd.offset()
	hdr, now, err := rd.next(now, headerSize)
	if err != nil || hdr == nil {
		return nil, recordHeader{}, now, err
	}
	h, ok := parseHeader(hdr, MaxKeyLen, segBytes, off)
	if !ok {
		return nil, h, now, nil
	}
	rec, now, err := rd.next(now, int(recordSize(h.keyLen, h.valLen)))
	if err != nil || rec == nil || index.Checksum(rec[1:8], rec[headerSize:]) != h.checksum {
		return nil, h, now, err
	}
	return rec, h, now, nil
}

// recordLens returns the key and value lengths in the header of the
// record that starts rec, which was verified when it was read.
func recordLens(rec []byte) (keyLen, valLen int) {
	return int(binary.LittleEndian.Uint16(rec[2:4])), int(binary.LittleEndian.Uint32(rec[4:8]))
}

// scanForward moves the reader past bytes where no record starts to the
// next record recordAt accepts, and returns it: each magic byte in the
// window is a candidate, validated in place (header sanity plus checksum,
// so payload bytes that merely look like a record start do not fool it),
// and the window refills as the search runs past it. A nil record means
// the rest of the segment holds no valid record: the torn tail.
func scanForward(now sim.Time, rd *logReader, segBytes int64) ([]byte, recordHeader, sim.Time, error) {
	for {
		rd.pos = min(rd.pos+1, len(rd.buf))
		for {
			if i := bytes.IndexByte(rd.buf[rd.pos:], recordMagic); i >= 0 {
				rd.pos += i
				break
			}
			rd.pos = len(rd.buf)
			b, done, err := rd.next(now, headerSize)
			if now = done; err != nil || b == nil {
				return nil, recordHeader{}, now, err
			}
		}
		rec, h, done, err := recordAt(now, rd, segBytes)
		if now = done; err != nil || rec != nil {
			return rec, h, now, err
		}
	}
}

// recoverSegment replays one segment's records into the index engine,
// streaming the segment through a direct handle with the logReader
// compaction uses. A record that fails validation mid-segment (a bit flip
// in any field) is skipped: the scan resynchronizes at the next decodable
// record, the damaged bytes are charged as dead space, and recovery
// continues — only when no valid record remains does the segment end (the
// torn-tail case, which is not counted as corruption). A window whose read
// fails is re-read page by page; the pages that still fail read as zeros,
// so the scan resynchronizes after them and charges them to the skip
// region, as damage. Unreadable pages past the last valid record are a
// skip region of their own, and the append point moves past them. Reads —
// and the engine's own writes while it rebuilds — are timed: recovery cost
// is part of the simulation.
func (s *Store) recoverSegment(now sim.Time, sg *segment) (sim.Time, error) {
	d, err := s.be.OpenDirect(sg.name)
	if err != nil {
		return now, fmt.Errorf("kv: open segment %s: %w", sg.name, err)
	}
	defer d.Close()
	sf := &salvageFile{BackendFile: d, pageSize: s.be.PageSize()}
	rd := logReader{f: sf, end: min(s.cfg.SegmentBytes, d.Size()), buf: s.window[:0], pageSize: sf.pageSize}
	defer func() { s.window = rd.buf }()
	end := int64(0) // end of the last valid record — the append point
	for {
		rec, h, done, rerr := recordAt(now, &rd, s.cfg.SegmentBytes)
		now = done
		if rerr == nil && rec == nil {
			rec, h, done, rerr = scanForward(now, &rd, s.cfg.SegmentBytes)
			now = done
			if rec != nil {
				s.stats.CorruptSkips++
				s.stats.SkippedBytes += uint64(rd.offset() - end)
				sg.dead += rd.offset() - end
			}
		}
		if rerr != nil || rec == nil {
			break
		}
		off := rd.offset()
		key := string(rec[headerSize : headerSize+h.keyLen])
		sz := int64(len(rec))
		if h.tombstone {
			if slot, ok := s.acct[key]; ok {
				s.dropIndexed(key, slot)
			}
			if now, err = s.eng.Delete(now, key); err != nil {
				return now, err
			}
			sg.dead += sz
		} else {
			l := index.Loc{Seg: sg.id, Off: off, ValLen: uint32(h.valLen)}
			s.setIndexed(key, l)
			if now, err = s.eng.Insert(now, key, l); err != nil {
				return now, err
			}
			sg.live += sz
		}
		s.stats.Recovered++
		rd.pos += len(rec)
		end = off + sz
	}
	if sf.badEnd > end {
		s.stats.CorruptSkips++
		s.stats.SkippedBytes += uint64(sf.badEnd - end)
		sg.dead += sf.badEnd - end
		end = sf.badEnd
	}
	sg.tail = end
	return now, nil
}

// salvageFile is the handle recovery reads a segment through: a read that
// fails is re-read one page at a time, and each page that still fails
// reads as zeros, which no record validates. badEnd is the end of the last
// such page. Reads start on page boundaries (logReader's do).
type salvageFile struct {
	BackendFile
	pageSize int
	badEnd   int64
}

func (f *salvageFile) ReadAt(now sim.Time, dst []byte, off int64) (int, sim.Time, error) {
	n, now, err := f.BackendFile.ReadAt(now, dst, off)
	if err == nil {
		return n, now, nil
	}
	for p := 0; p < len(dst); p += f.pageSize {
		page := dst[p:min(p+f.pageSize, len(dst))]
		got, done, err := f.BackendFile.ReadAt(now, page, off+int64(p))
		now = done
		switch {
		case err != nil:
			clear(page)
			f.badEnd = off + int64(p+len(page))
		case got != len(page):
			return p + got, now, nil
		}
	}
	return len(dst), now, nil
}

// setIndexed points key at l, retiring the record it superseded, if any.
// An existing key costs one map probe: its slot is rewritten in place.
func (s *Store) setIndexed(key string, l index.Loc) {
	if slot, ok := s.acct[key]; ok {
		s.retire(len(key), s.locs[slot])
		s.locs[slot] = l
		return
	}
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.locs[slot], s.keys[slot] = l, key
		s.acct[key] = slot
		return
	}
	s.acct[key] = int32(len(s.locs))
	s.locs = append(s.locs, l)
	s.keys = append(s.keys, key)
}

// dropIndexed retires key's current record, held in slot, and frees the
// slot.
func (s *Store) dropIndexed(key string, slot int32) {
	s.retire(len(key), s.locs[slot])
	delete(s.acct, key)
	s.keys[slot] = ""
	s.free = append(s.free, slot)
}

// retire turns the record at l, of a key keyLen bytes long, from live into
// dead bytes in whatever segment holds it. Pure accounting — the engine's
// own state changes ride the caller's timed Insert or Delete.
func (s *Store) retire(keyLen int, l index.Loc) {
	sz := recordSize(keyLen, int(l.ValLen))
	if sg, ok := s.segs[l.Seg]; ok {
		sg.live -= sz
		sg.dead += sz
	}
}
