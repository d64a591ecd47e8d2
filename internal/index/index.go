// Package index provides pluggable index engines for the log-structured KV
// store: the mapping from each key to its latest value-log record. Three
// engines implement the same Engine interface with very different read
// behavior, which is the point — index traversal is where storage software
// generates tiny reads, so swapping the engine under an unchanged store
// turns the fine-grained-read argument into an index-structure comparison:
//
//   - hash: the extracted original — an in-memory map, sorted on demand for
//     ordered scans. Lookups cost no device I/O; the baseline every
//     on-device structure is measured against.
//   - btree: a paged B+-tree whose nodes are sub-page (512 B by default) and
//     live in arena files on the store's filesystem. Every traversal step is
//     a real timed read through the vfs — a few hundred bytes that a
//     block-granular stack must round up to a full page and the fine-grained
//     path serves exactly.
//   - lsm: a memtable plus sorted runs in prefix-compressed, checksummed
//     blocks, with per-run bloom filters (sized by bits/key) and a small
//     block cache.
//     Negative lookups are its characteristic workload: the filters prune
//     most runs, and the residual false-positive probes are sub-page block
//     reads — again the fine-read regime.
//
// Engines persist nothing authoritative: the value log is the source of
// truth, and the store rebuilds its index from the log scan at Open. Index
// files are scratch state recreated per incarnation, so a torn node write
// or truncated run can never corrupt recovery — the crash-consistency story
// stays exactly the checksummed log's.
package index

import (
	"fmt"

	"pipette/internal/sim"
)

// Loc locates a key's latest value-log record: the segment, the record's
// offset in it, and the value length (what a Get must read).
type Loc struct {
	Seg    uint32
	Off    int64
	ValLen uint32
}

// Kind names an index engine.
type Kind string

const (
	Hash  Kind = "hash"
	BTree Kind = "btree"
	LSM   Kind = "lsm"
)

// Kinds lists the engines in canonical order.
func Kinds() []Kind { return []Kind{Hash, BTree, LSM} }

// ParseKind validates an engine name ("" selects hash).
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", Hash:
		return Hash, nil
	case BTree:
		return BTree, nil
	case LSM:
		return LSM, nil
	}
	return "", fmt.Errorf("index: unknown engine %q (known: hash, btree, lsm)", s)
}

// File is one open index-file handle. All I/O threads virtual time, exactly
// like the value-log segments underneath.
type File interface {
	ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error)
	WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error)
	Sync(now sim.Time) (sim.Time, error)
	Close() error
	Size() int64
}

// Backend is the filesystem engines keep their node arenas and runs on —
// the same interface the KV store's value log uses (kv.Backend aliases it).
type Backend interface {
	// Create makes a fixed-size file and returns its write handle.
	Create(name string, size int64) (File, error)
	// OpenReader opens a read handle; fine requests O_FINE_GRAINED so index
	// reads take the byte-granular path.
	OpenReader(name string, fine bool) (File, error)
	// OpenDirect opens a read handle that bypasses the host caches (the
	// vfs's O_DIRECT): for sequential passes over a whole file, such as
	// merges and log compaction, that should neither fill nor evict them.
	OpenDirect(name string) (File, error)
	// OpenWriter opens a write handle on an existing file.
	OpenWriter(name string) (File, error)
	Remove(name string) error
	Files() []string
	PageSize() int
}

// Engine geometry. Nodes and blocks are sub-page by design: they are the
// tiny reads the fine-grained path serves exactly.
const (
	NodeBytes        = 512  // btree node size
	ArenaNodes       = 1024 // nodes one btree arena file holds
	BloomBitsPerKey  = 10   // bits per key of each lsm run's bloom filter
	BlockBytes       = 512  // lsm run block (and fence-pointer) granularity
	BlockCacheBlocks = 64   // lsm block cache capacity
	LevelFanout      = 4    // runs a level accumulates before Tick merges them down
	// MergeChunkBytes is how much of an input run a level merge reads at
	// a time, through a direct handle: whole blocks, many per read.
	MergeChunkBytes = 64 << 10
)

// Config parameterizes an engine. Zero values take defaults.
type Config struct {
	// Kind selects the engine; zero selects Hash.
	Kind Kind
	// NamePrefix prefixes the engine's files (btree arenas, lsm runs).
	NamePrefix string
	// Fine opens index read handles O_FINE_GRAINED, so node and block reads
	// go down the fine-grained path. Off, they pay block granularity.
	Fine bool
	// MemtableEntries is the lsm flush threshold. Default 4096.
	MemtableEntries int
}

func (cfg *Config) setDefaults() {
	if cfg.Kind == "" {
		cfg.Kind = Hash
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "kv/idx-"
	}
	if cfg.MemtableEntries == 0 {
		cfg.MemtableEntries = 4096
	}
}

// Stats counts engine activity since New. Fields are engine-specific where
// named so; BytesRead/BytesWritten cover all index-file I/O either engine
// issued (what the index itself asked for — the device may transfer more
// under block granularity, which is the experiment).
type Stats struct {
	Inserts uint64
	Deletes uint64
	Lookups uint64

	// B+-tree.
	NodeReads  uint64 // timed node fetches (page/fine cache may still hit below)
	NodeWrites uint64
	Splits     uint64
	Merges     uint64 // node merges and borrows on underflow
	Height     int
	Nodes      int

	// LSM.
	Flushes       uint64 // memtable flushes into L0 runs
	Compactions   uint64 // level merges run by Tick
	Runs          int    // current on-disk runs
	BloomChecks   uint64 // per-run membership tests
	BloomNegative uint64 // runs pruned without I/O
	BloomFalsePos uint64 // filters that said maybe for an absent key
	CacheHits     uint64 // block-cache hits (no I/O)
	CacheMisses   uint64 // block reads that went to the filesystem

	BytesRead    uint64
	BytesWritten uint64
}

// BloomFPRate is the observed false-positive rate of the run filters.
func (s Stats) BloomFPRate() float64 {
	maybe := s.BloomChecks - s.BloomNegative
	if maybe == 0 {
		return 0
	}
	return float64(s.BloomFalsePos) / float64(maybe)
}

// CacheHitRate is the block cache's hit ratio.
func (s Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// NodeReadsPerLookup is the mean traversal depth paid per lookup.
func (s Stats) NodeReadsPerLookup() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.NodeReads) / float64(s.Lookups)
}

// Engine is the pluggable index: the key -> Loc mapping the store consults
// on every operation. Implementations are single-threaded, like the store.
type Engine interface {
	Kind() Kind
	// Insert records key -> l, superseding any earlier entry.
	Insert(now sim.Time, key string, l Loc) (sim.Time, error)
	// Delete removes key (a no-op if absent — the store has already decided
	// the delete is valid against its accounting).
	Delete(now sim.Time, key string) (sim.Time, error)
	// Lookup resolves key to its latest Loc; ok=false means absent.
	Lookup(now sim.Time, key string) (l Loc, ok bool, done sim.Time, err error)
	// Scan visits keys >= start in order until fn returns false. fn threads
	// virtual time: it receives the clock after the engine's own reads and
	// returns it advanced past whatever the caller did per key.
	Scan(now sim.Time, start string, fn func(now sim.Time, key string, l Loc) (sim.Time, bool)) (sim.Time, error)
	// Tick runs one round of background maintenance (lsm level merges);
	// reports whether any work ran.
	Tick(now sim.Time) (bool, sim.Time, error)
	// Close flushes and releases the engine's files.
	Close(now sim.Time) (sim.Time, error)
	Stats() Stats
}

// New builds the configured engine over be. RemoveFiles should normally be
// called first by the owner when reusing a prefix (the store does).
func New(be Backend, cfg Config) (Engine, error) {
	cfg.setDefaults()
	switch cfg.Kind {
	case Hash:
		return newHash(), nil
	case BTree:
		return newBTree(be, cfg)
	case LSM:
		return newLSM(be, cfg), nil
	}
	return nil, fmt.Errorf("index: unknown engine %q", cfg.Kind)
}

// RemoveFiles deletes every backend file under prefix — the stale scratch
// state of a previous engine incarnation. File names are collected before
// removal so backends with mutating listings stay safe, and processed in
// listing order (deterministic for the extfs-backed production backend).
func RemoveFiles(be Backend, prefix string) error {
	var stale []string
	for _, name := range be.Files() {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			stale = append(stale, name)
		}
	}
	for _, name := range stale {
		if err := be.Remove(name); err != nil {
			return fmt.Errorf("index: removing stale %s: %w", name, err)
		}
	}
	return nil
}
