package kv

import (
	"fmt"

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

// compact rewrites sg: live records move to the active segment, tombstones
// still shadowing older segments are preserved, everything else is dropped.
// Then the segment file is removed and its space returns to the filesystem.
// Every record is verified against its checksum before it is moved, and
// moved byte for byte: a damaged record stops the compaction with an error
// naming the segment and offset, and the segment is kept, so recovery
// still sees (and skips) the damage instead of compaction laundering it
// under a fresh checksum.
func (s *Store) compact(now sim.Time, sg *segment) (sim.Time, error) {
	reclaimed := uint64(sg.tail)
	for off := int64(0); off < sg.tail; {
		// The header lands in the store's record scratch, where the rest
		// of the record follows it.
		if cap(s.scratch) < headerSize {
			s.scratch = make([]byte, headerSize)
		}
		hdr := s.scratch[:headerSize]
		if _, done, err := sg.r.ReadAt(now, hdr, off); err != nil {
			return done, err
		} else {
			now = done
		}
		h, ok := parseHeader(hdr, MaxKeyLen, s.cfg.SegmentBytes, off)
		if !ok {
			return now, fmt.Errorf("kv: segment %s corrupt at offset %d", sg.name, off)
		}
		sz := recordSize(h.keyLen, h.valLen)
		if int64(cap(s.scratch)) < sz {
			grown := make([]byte, sz)
			copy(grown, hdr)
			s.scratch = grown
		}
		rec := s.scratch[:sz]
		if _, done, err := sg.r.ReadAt(now, rec[headerSize:], off+headerSize); err != nil {
			return done, err
		} else {
			now = done
		}
		if index.Checksum(rec[1:8], rec[headerSize:]) != h.checksum {
			return now, fmt.Errorf("kv: segment %s corrupt at offset %d: checksum mismatch", sg.name, off)
		}
		key := rec[headerSize : headerSize+h.keyLen]
		if h.tombstone {
			// A tombstone may still be shadowing a record in an older
			// segment. Once the key is live again (or the tombstone's
			// segment is the oldest holder), it can be dropped; re-append
			// it otherwise, to keep deletes durable across recovery.
			if !s.tombstoneObsolete(key, sg.id) {
				id, _, done, err := s.appendRecord(now, rec)
				if err != nil {
					return done, err
				}
				now = done
				s.segs[id].dead += sz
				reclaimed -= uint64(sz)
			}
		} else if slot, ok := s.acct[string(key)]; ok && s.locs[slot].Seg == sg.id && s.locs[slot].Off == off {
			// Live record: move it to the active log and repoint the index
			// engine at it (a timed engine write — compaction pays the
			// index's update cost too).
			id, recOff, done, err := s.appendRecord(now, rec)
			if err != nil {
				return done, err
			}
			now = done
			l := index.Loc{Seg: id, Off: recOff, ValLen: uint32(h.valLen)}
			s.retire(h.keyLen, s.locs[slot])
			s.locs[slot] = l
			if now, err = s.eng.Insert(now, s.keys[slot], l); err != nil {
				return now, err
			}
			s.segs[id].live += sz
			s.stats.MovedBytes += uint64(sz)
			reclaimed -= uint64(sz)
		}
		off += sz
	}
	if err := s.dropSegment(sg); err != nil {
		return now, err
	}
	s.stats.Compactions++
	s.stats.ReclaimedBytes += reclaimed
	return now, nil
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
