package kv

import (
	"cmp"
	"fmt"
	"slices"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// MaintenanceTick runs one round of background work: if any sealed segment's
// dead fraction has reached CompactMinDeadFrac, the worst one is compacted —
// its live records re-appended to the active log, its file removed. The
// index engine then gets its own maintenance round (LSM level merges ride
// the same cadence as log compaction). Returns whether any work ran and the
// simulated completion time. The owning system calls this from its periodic
// maintenance tick, so reclamation rides the same cadence as writeback and
// FGRC eviction.
func (s *Store) MaintenanceTick(now sim.Time) (bool, sim.Time, error) {
	ran := false
	if victim := s.pickVictim(); victim != nil {
		var err error
		if now, err = s.compact(now, victim); err != nil {
			return false, now, err
		}
		ran = true
	}
	engRan, now, err := s.eng.Tick(now)
	if err != nil {
		return ran, now, err
	}
	return ran || engRan, now, nil
}

// pickVictim returns the sealed segment with the highest dead fraction at or
// above the threshold, scanning in creation order for determinism.
func (s *Store) pickVictim() *segment {
	var best *segment
	for _, id := range s.order {
		sg := s.segs[id]
		if sg.w != nil { // active segment still takes appends
			continue
		}
		if sg.deadFrac() < CompactMinDeadFrac {
			continue
		}
		if best == nil || sg.deadFrac() > best.deadFrac() {
			best = sg
		}
	}
	return best
}

// compactWindow is how much of a victim segment one compaction read asks
// for: a whole number of pages, so every read but the last is
// page-aligned at both ends.
const compactWindow = 128 << 10

// compact rewrites sg: live records move to the active segment, tombstones
// still shadowing older segments are preserved, everything else is dropped.
// Then the segment file is removed and its space returns to the filesystem.
// The victim streams through a direct handle in compactWindow reads, so the
// pass neither fills nor evicts the host caches just before the file goes
// away. Every record is verified against its checksum before it is moved,
// and moved byte for byte: a damaged record stops the compaction with an
// error naming the segment and offset, and the segment is kept, so recovery
// still sees (and skips) the damage instead of compaction laundering it
// under a fresh checksum. The moved copies are synced before the victim is
// removed, so a crash never loses a record the victim held durably: the
// active segment is synced here, and a segment sealed during the pass was
// synced by rotate.
func (s *Store) compact(now sim.Time, sg *segment) (sim.Time, error) {
	d, err := s.be.OpenDirect(sg.name)
	if err != nil {
		return now, fmt.Errorf("kv: open segment %s: %w", sg.name, err)
	}
	reclaimed, now, err := s.moveRecords(now, sg, d)
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil && reclaimed < uint64(sg.tail) { // the pass appended records
		now, err = s.Sync(now)
	}
	if err != nil {
		return now, err
	}
	if err := s.dropSegment(sg); err != nil {
		return now, err
	}
	s.stats.Compactions++
	s.stats.ReclaimedBytes += reclaimed
	return now, nil
}

// moveRecords walks sg's records through the direct handle d, moving what
// compact keeps, and returns the bytes it did not move. Which records are
// live comes from one pass over the store's slots (liveSlots), not a map
// probe per record. The records kept are gathered in the store's moving
// scratch and go to the log once compactWindow bytes of them have gathered,
// and once more at the end: one append each, split only where the active
// segment ends. A damaged record drops the moves gathered but not yet
// written.
func (s *Store) moveRecords(now sim.Time, sg *segment, d BackendFile) (uint64, sim.Time, error) {
	reclaimed := uint64(sg.tail)
	live := s.liveSlots(sg.id)
	rd := logReader{f: d, end: sg.tail, buf: s.window[:0], pageSize: s.be.PageSize()}
	defer func() { s.window = rd.buf }()
	if s.moving == nil {
		s.moving = make([]byte, 0, compactWindow+rd.pageSize)
	}
	s.moving, s.moves = s.moving[:0], s.moves[:0]
	for off := int64(0); off < sg.tail; off = rd.offset() {
		rec, h, done, err := recordAt(now, &rd, s.cfg.SegmentBytes)
		if now = done; err != nil {
			return 0, now, err
		}
		if rec == nil {
			return 0, now, fmt.Errorf("kv: segment %s corrupt at offset %d", sg.name, off)
		}
		key := rec[headerSize : headerSize+h.keyLen]
		slot, keep := int32(-1), false
		if h.tombstone {
			// A tombstone may still be shadowing a record in an older
			// segment. Once the key is live again (or the tombstone's
			// segment is the oldest holder), it can be dropped; re-append
			// it otherwise, to keep deletes durable across recovery.
			keep = !s.tombstoneObsolete(key, sg.id)
		} else {
			for len(live) > 0 && s.locs[live[0]].Off < off {
				live = live[1:]
			}
			if len(live) > 0 && s.locs[live[0]].Off == off && s.keys[live[0]] == string(key) {
				slot, keep = live[0], true
				live = live[1:]
			}
		}
		if keep {
			s.moving = append(s.moving, rec...)
			s.moves = append(s.moves, slot)
			reclaimed -= uint64(len(rec))
			if len(s.moving) >= compactWindow {
				if now, err = s.appendMoves(now); err != nil {
					return 0, now, err
				}
			}
		}
		rd.pos += len(rec)
	}
	now, err := s.appendMoves(now)
	return reclaimed, now, err
}

// liveSlots returns the slots of the live records segment id holds, in log
// order, gathered by one pass over the slots into the store's victim
// scratch. A freed slot keeps its stale Loc but no key, so it is passed
// over.
func (s *Store) liveSlots(id uint32) []int32 {
	v := s.victim[:0]
	for slot, l := range s.locs {
		if l.Seg == id && s.keys[slot] != "" {
			v = append(v, int32(slot))
		}
	}
	slices.SortFunc(v, func(a, b int32) int { return cmp.Compare(s.locs[a].Off, s.locs[b].Off) })
	s.victim = v
	return v
}

// appendMoves writes the records gathered in s.moving to the log, in one
// append per segment they land in, then repoints each moved key's slot and
// index entry at its new copy, in log order (a timed engine write per
// record: compaction pays the index's update cost too). s.moves holds each
// record's slot, -1 for a tombstone.
func (s *Store) appendMoves(now sim.Time) (sim.Time, error) {
	batch, moves := s.moving, s.moves
	s.moving, s.moves = s.moving[:0], s.moves[:0]
	for len(moves) > 0 {
		// The longest run of records that fits the active segment; none
		// fits only when the segment is full.
		room := s.cfg.SegmentBytes - s.active.tail
		n, k := 0, 0
		for ; k < len(moves); k++ {
			sz := int(recordSize(recordLens(batch[n:])))
			if int64(n+sz) > room {
				break
			}
			n += sz
		}
		if k == 0 {
			var err error
			if now, err = s.rotate(now); err != nil {
				return now, err
			}
			continue
		}
		id, off, done, err := s.appendRecord(now, batch[:n])
		if err != nil {
			return done, err
		}
		now = done
		for _, slot := range moves[:k] {
			keyLen, valLen := recordLens(batch)
			sz := recordSize(keyLen, valLen)
			if slot < 0 {
				s.segs[id].dead += sz
			} else {
				l := index.Loc{Seg: id, Off: off, ValLen: uint32(valLen)}
				s.retire(keyLen, s.locs[slot])
				s.locs[slot] = l
				if now, err = s.eng.Insert(now, s.keys[slot], l); err != nil {
					return now, err
				}
				s.segs[id].live += sz
				s.stats.MovedBytes += uint64(sz)
			}
			batch, off = batch[sz:], off+sz
		}
		moves = moves[k:]
	}
	return now, nil
}

// logReader streams the bytes [0, end) of a segment through a direct handle,
// asking for each byte once: reads start where the previous one stopped, on
// a page boundary, and take compactWindow bytes, or as many whole pages as
// the record at hand still needs, capped at end. The bytes of a record a
// read cut off are carried to the front of the buffer and completed by the
// next read.
type logReader struct {
	f        BackendFile
	end      int64 // bytes of the file the reader may ask for
	read     int64 // bytes it has asked for
	pageSize int
	buf      []byte // buf[pos:len(buf)] is unconsumed
	pos      int
}

// offset is the file offset of the reader's position.
func (r *logReader) offset() int64 { return r.read - int64(len(r.buf)-r.pos) }

// next returns the unconsumed n bytes at the reader's position, reading
// more of the file if needed; nil if the file ends before them. The bytes
// stay valid until the next call.
func (r *logReader) next(now sim.Time, n int) ([]byte, sim.Time, error) {
	if have := len(r.buf) - r.pos; have < n {
		if r.read+int64(n-have) > r.end {
			return nil, now, nil
		}
		want := max(compactWindow, (n-have+r.pageSize-1)/r.pageSize*r.pageSize)
		want = int(min(int64(want), r.end-r.read))
		if cap(r.buf) < have+want {
			grown := make([]byte, have, max(have+want, compactWindow+r.pageSize))
			copy(grown, r.buf[r.pos:])
			r.buf = grown
		} else {
			r.buf = r.buf[:copy(r.buf[:cap(r.buf)], r.buf[r.pos:])]
		}
		r.pos = 0
		got, done, err := r.f.ReadAt(now, r.buf[have:have+want], r.read)
		if err != nil {
			return nil, done, err
		}
		if got != want {
			return nil, done, fmt.Errorf("kv: short read %d of %d at offset %d", got, want, r.read)
		}
		now = done
		r.buf = r.buf[:have+want]
		r.read += int64(want)
	}
	return r.buf[r.pos : r.pos+n], now, nil
}

// tombstoneObsolete reports whether a tombstone of key in segment id no
// longer shadows anything: the key has a live record again, or no older
// segment could still hold a stale version of it.
func (s *Store) tombstoneObsolete(key []byte, id uint32) bool {
	if _, ok := s.acct[string(key)]; ok {
		return true
	}
	// If this is the oldest remaining segment, nothing older can resurrect
	// the key after recovery.
	return len(s.order) > 0 && s.order[0] == id
}

// dropSegment closes and deletes sg's file and forgets it.
func (s *Store) dropSegment(sg *segment) error {
	if err := sg.r.Close(); err != nil {
		return err
	}
	if err := s.be.Remove(sg.name); err != nil {
		return err
	}
	delete(s.segs, sg.id)
	for i, id := range s.order {
		if id == sg.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}
