// Package kv is a log-structured key-value store built on the simulated
// storage stack: an append-only value log split into fixed-size segment
// files, a pluggable index engine mapping each key to its latest record,
// and background merge compaction that reclaims superseded space.
//
// The design is the paper's motivating workload. Values are far smaller than
// a filesystem page, so every Get wants exactly len(value) bytes at a known
// offset — the access pattern the fine-grained read path (O_FINE_GRAINED)
// serves without transferring the surrounding page. Running the same store
// over a block-I/O backend and a Pipette backend turns the read-amplification
// argument of the paper into an end-to-end measurement.
//
// The index is pluggable (internal/index): an in-memory hash map, a paged
// B+-tree whose sub-page nodes live on the same filesystem, or an LSM of
// bloom-filtered sorted runs. On-device engines add their own tiny reads to
// every lookup — index traversal under block vs fine granularity is the
// second axis of the same experiment. The value log stays the only
// authoritative state: Open rebuilds whichever engine is configured from the
// checksummed log scan, so index files are scratch, recreated per
// incarnation.
package kv

import (
	"errors"
	"fmt"

	"pipette/internal/index"
	"pipette/internal/sim"
)

// ErrNotFound reports a Get or Delete of an absent key.
var ErrNotFound = errors.New("kv: key not found")

// Config parameterizes a Store.
type Config struct {
	// NamePrefix prefixes segment file names. Default "kv/seg-".
	NamePrefix string
	// SegmentBytes is the fixed segment file size; the log rotates when an
	// append would overflow it. Default 4 MiB.
	SegmentBytes int64
	// FineReads opens segment read handles O_FINE_GRAINED, so Gets issue
	// exact-length reads down the Pipette path. Off, Gets go through the
	// ordinary block-granular path — same store, different read engine.
	// The index engine's reads follow the same setting.
	FineReads bool
	// Index configures the index engine. The store fills in NamePrefix
	// (derived from the segment prefix) and Fine (from FineReads); Kind and
	// MemtableEntries are the caller's. Zero Kind selects hash.
	Index index.Config
}

const (
	// CompactMinDeadFrac is the dead-byte fraction a sealed segment must
	// reach before MaintenanceTick rewrites it.
	CompactMinDeadFrac = 0.4
	// MaxKeyLen bounds key size (also the recovery scan's sanity bound).
	MaxKeyLen = 1 << 10
)

func (cfg *Config) setDefaults() {
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "kv/seg-"
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.Index.NamePrefix == "" {
		cfg.Index.NamePrefix = cfg.NamePrefix + "idx-"
	}
	cfg.Index.Fine = cfg.FineReads
}

// Stats counts store activity since Open.
type Stats struct {
	Puts    uint64
	Gets    uint64
	Deletes uint64
	Scans   uint64

	Hits   uint64 // Gets that found the key
	Misses uint64 // Gets (and Deletes) of absent keys

	BytesWritten uint64 // log appends, including rewrites by compaction
	BytesRead    uint64 // value bytes returned to callers

	Rotations      uint64 // segments sealed because the next append overflowed
	Compactions    uint64 // segments rewritten and removed
	ReclaimedBytes uint64 // dead bytes freed by compaction
	MovedBytes     uint64 // live bytes compaction re-appended
	Recovered      uint64 // records replayed by Open
	CorruptSkips   uint64 // corrupt log runs recovery resynchronized past
	SkippedBytes   uint64 // bytes of log skipped as unrecoverable
}

// Store is a log-structured KV store over a Backend. Not safe for concurrent
// use — like the rest of the simulation, callers serialize on the owning
// system's lock.
type Store struct {
	cfg    Config
	be     Backend
	segs   map[uint32]*segment
	order  []uint32 // segment ids, creation order (deterministic iteration)
	active *segment
	nextID uint32

	// eng answers every timed Lookup and Scan — its reads are the
	// measurement. acct shadows it untimed for the store's own bookkeeping
	// (segment live/dead accounting, presence checks, compaction currency):
	// the engine must not be charged device time for accounting the store
	// does off the critical path. acct maps each live key to a slot of
	// locs, so an update probes the map once and rewrites the slot in
	// place; Delete returns the slot to free. keys holds each slot's key,
	// the string acct holds, so compaction re-inserts a moved record under
	// it instead of converting the key bytes it read.
	eng  index.Engine
	acct map[string]int32
	locs []index.Loc
	keys []string
	free []int32

	stats   Stats
	scratch []byte  // one record, encoded by Put and Delete
	window  []byte  // the log reader's buffer, kept across compactions and recovered segments
	moving  []byte  // records compaction gathered to move, appended once compactWindow bytes gather
	moves   []int32 // the slot of each record in moving, -1 for a tombstone
	victim  []int32 // the slots of the compaction victim's live records, in log order
}

// Open starts a store over be, replaying any existing segments under
// cfg.NamePrefix: the index is rebuilt by scanning each segment's records
// in file order. A record damaged mid-segment (bad magic, insane length,
// or checksum mismatch) is skipped — the scan resynchronizes at the next
// valid record and counts the damage in Stats.CorruptSkips/SkippedBytes;
// only a tail after which no valid record remains ends a segment's replay.
// Appends resume into the last segment. Index files from a previous
// incarnation are removed first — the engine is rebuilt from the log, so a
// torn node write or truncated run before a crash cannot affect recovery.
// Returns the simulated completion time of the recovery reads and writes.
func Open(now sim.Time, be Backend, cfg Config) (*Store, sim.Time, error) {
	cfg.setDefaults()
	if cfg.SegmentBytes < int64(headerSize+MaxKeyLen+1) {
		return nil, now, fmt.Errorf("kv: SegmentBytes %d cannot hold one record", cfg.SegmentBytes)
	}
	if err := index.RemoveFiles(be, cfg.Index.NamePrefix); err != nil {
		return nil, now, err
	}
	eng, err := index.New(be, cfg.Index)
	if err != nil {
		return nil, now, err
	}
	s := &Store{
		cfg:    cfg,
		be:     be,
		segs:   make(map[uint32]*segment),
		eng:    eng,
		acct:   make(map[string]int32),
		nextID: 1,
	}
	ids := listSegments(be, cfg.NamePrefix)
	for _, id := range ids {
		name := segName(cfg.NamePrefix, id)
		r, err := be.OpenReader(name, cfg.FineReads)
		if err != nil {
			return nil, now, fmt.Errorf("kv: open segment %s: %w", name, err)
		}
		sg := &segment{id: id, name: name, r: r}
		s.segs[id] = sg
		s.order = append(s.order, id)
		if now, err = s.recoverSegment(now, sg); err != nil {
			return nil, now, err
		}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	if len(ids) > 0 {
		// Resume appending into the newest segment.
		last := s.segs[ids[len(ids)-1]]
		w, err := be.OpenWriter(last.name)
		if err != nil {
			return nil, now, fmt.Errorf("kv: reopen segment %s: %w", last.name, err)
		}
		last.w = w
		s.active = last
	} else {
		sg, err := s.newSegment()
		if err != nil {
			return nil, now, err
		}
		s.active = sg
	}
	return s, now, nil
}

// Len reports the number of live keys.
func (s *Store) Len() int { return len(s.acct) }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats { return s.stats }

// IndexKind reports which index engine the store runs on.
func (s *Store) IndexKind() index.Kind { return s.eng.Kind() }

// IndexStats returns a snapshot of the index engine's counters.
func (s *Store) IndexStats() index.Stats { return s.eng.Stats() }

// Segments reports how many segment files currently exist.
func (s *Store) Segments() int { return len(s.segs) }

// Put writes key = val, superseding any earlier record.
func (s *Store) Put(now sim.Time, key string, val []byte) (sim.Time, error) {
	if err := s.checkKey(key); err != nil {
		return now, err
	}
	if int64(recordSize(len(key), len(val))) > s.cfg.SegmentBytes {
		return now, fmt.Errorf("kv: value of %d bytes exceeds segment size", len(val))
	}
	s.scratch = encodeRecord(s.scratch, key, val, false)
	id, off, done, err := s.appendRecord(now, s.scratch)
	if err != nil {
		return done, err
	}
	now = done
	l := index.Loc{Seg: id, Off: off, ValLen: uint32(len(val))}
	s.setIndexed(key, l)
	if now, err = s.eng.Insert(now, key, l); err != nil {
		return now, err
	}
	s.segs[id].live += int64(len(s.scratch))
	s.stats.Puts++
	return now, nil
}

// Get reads key's value, appending it to dst (pass nil to allocate). The
// index engine resolves the key first — for the on-device engines that is
// one or more timed sub-page reads — then the read asks the backend for
// exactly the value's bytes.
func (s *Store) Get(now sim.Time, key string, dst []byte) ([]byte, sim.Time, error) {
	s.stats.Gets++
	l, ok, now, err := s.eng.Lookup(now, key)
	if err != nil {
		return dst, now, fmt.Errorf("kv: get %q: %w", key, err)
	}
	if !ok {
		s.stats.Misses++
		return dst, now, ErrNotFound
	}
	dst, now, err = s.readValue(now, key, l, dst)
	if err != nil {
		return dst, now, err
	}
	s.stats.Hits++
	return dst, now, nil
}

// readValue reads the value of the record l locates, appending it to dst.
func (s *Store) readValue(now sim.Time, key string, l index.Loc, dst []byte) ([]byte, sim.Time, error) {
	n := len(dst)
	need := n + int(l.ValLen)
	if cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	sg, ok := s.segs[l.Seg]
	if !ok {
		return dst[:n], now, fmt.Errorf("kv: get %q: stale segment %d", key, l.Seg)
	}
	got, done, err := sg.r.ReadAt(now, dst[n:], l.Off+valueOffset(key))
	if err != nil {
		// %w keeps the device's error chain intact: an uncorrectable
		// media error stays classifiable via errors.Is at the API surface.
		return dst[:n], done, fmt.Errorf("kv: get %q: %w", key, err)
	}
	if got != int(l.ValLen) {
		return dst[:n], done, fmt.Errorf("kv: short read %d of %d", got, l.ValLen)
	}
	s.stats.BytesRead += uint64(l.ValLen)
	return dst, done, nil
}

// valueOffset is the value's offset within a record holding key.
func valueOffset(key string) int64 { return int64(headerSize + len(key)) }

// Delete removes key by appending a tombstone. ErrNotFound if absent (the
// tombstone is still not written — nothing to shadow).
func (s *Store) Delete(now sim.Time, key string) (sim.Time, error) {
	if err := s.checkKey(key); err != nil {
		return now, err
	}
	slot, ok := s.acct[key]
	if !ok {
		s.stats.Misses++
		return now, ErrNotFound
	}
	s.scratch = encodeRecord(s.scratch, key, nil, true)
	id, _, done, err := s.appendRecord(now, s.scratch)
	if err != nil {
		return done, err
	}
	now = done
	s.dropIndexed(key, slot)
	if now, err = s.eng.Delete(now, key); err != nil {
		return now, err
	}
	// The tombstone itself is dead weight from birth; it exists only to
	// shadow older records of key until they are compacted away.
	s.segs[id].dead += int64(len(s.scratch))
	s.stats.Deletes++
	return now, nil
}

// Scan visits up to n keys >= start in order, reading each value and calling
// fn. fn returning false stops the scan early. Key order comes from the
// index engine — its own reads (leaf chains, run merges) are timed along
// with the value reads.
func (s *Store) Scan(now sim.Time, start string, n int, fn func(key string, val []byte) bool) (sim.Time, error) {
	s.stats.Scans++
	if n <= 0 {
		return now, nil
	}
	var buf []byte
	var rerr error
	now, err := s.eng.Scan(now, start, func(now sim.Time, key string, l index.Loc) (sim.Time, bool) {
		var done sim.Time
		buf, done, rerr = s.readValue(now, key, l, buf[:0])
		if rerr != nil {
			return done, false
		}
		n--
		return done, fn(key, buf) && n > 0
	})
	if rerr != nil {
		return now, rerr
	}
	return now, err
}

// Sync flushes the active segment.
func (s *Store) Sync(now sim.Time) (sim.Time, error) {
	return s.active.w.Sync(now)
}

// Close syncs the active segment and releases every file handle, including
// the index engine's. The store must not be used afterwards; Open recovers
// the same state from the log alone.
func (s *Store) Close(now sim.Time) (sim.Time, error) {
	done, err := s.active.w.Sync(now)
	if err != nil {
		return done, err
	}
	for _, id := range s.order {
		sg := s.segs[id]
		if sg.w != nil {
			if cerr := sg.w.Close(); cerr != nil && err == nil {
				err = cerr
			}
			sg.w = nil
		}
		if cerr := sg.r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	done, cerr := s.eng.Close(done)
	if cerr != nil && err == nil {
		err = cerr
	}
	return done, err
}

func (s *Store) checkKey(key string) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("kv: key length %d outside [1,%d]", len(key), MaxKeyLen)
	}
	return nil
}
