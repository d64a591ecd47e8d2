package cluster

import (
	"fmt"

	"pipette/internal/baseline"
	"pipette/internal/fault"
	"pipette/internal/kv"
	"pipette/internal/metrics"
	"pipette/internal/sim"
)

// ShardConfig sizes one shard's private system. The flash is provisioned
// for DatasetBytes of live KV records (log churn headroom included) and
// the caches are budgeted at an eighth of the dataset — the miss-heavy
// regime where the read path's granularity matters, mirroring the kv
// experiment.
type ShardConfig struct {
	// DatasetBytes is the live record volume this shard must hold.
	DatasetBytes int64
	// FineReads serves Gets through the fine-grained read path.
	FineReads bool
	// Fault arms deterministic fault injection on this shard's stack; the
	// empty profile is the zero-cost default. FaultSeed drives the per-site
	// decision streams.
	Fault     fault.Profile
	FaultSeed uint64
	// ECCUncorrectableFrac overrides the controller's default fraction of
	// injected read errors that defeat the whole retry ladder (0 keeps the
	// stack default). A dying member models as a high fraction.
	ECCUncorrectableFrac float64
}

// Shard is one member of the cluster: a complete simulated SSD system (a
// baseline.Stack, with its stage account and resource tracker) with a
// log-structured KV store on top.
type Shard struct {
	*baseline.Stack
	ID    int
	Store *kv.Store

	cfg ShardConfig

	readBuf []byte // Get scratch, reused across executions

	// loadClock is the shard's virtual-time frontier during Load; replay
	// events always run at or after it, keeping per-shard time monotone.
	loadClock sim.Time
}

// Faulted reports whether this shard carries a fault profile. The profile
// arms at SealLoad — the device degrades in service, after its dataset is
// in place — so preload is always clean.
func (sh *Shard) Faulted() bool { return !sh.cfg.Fault.Empty() }

// Snapshot reports the shard stack's traffic and cache statistics, the
// same accounting the baseline engines use so read amplification is
// comparable across the tier.
func (sh *Shard) Snapshot() metrics.Snapshot {
	return sh.Stack.Snapshot(fmt.Sprintf("shard%d", sh.ID))
}

// NewShard assembles one shard: the stack (with the fine-read core when
// cfg.FineReads is set) and the KV store. The fault profile stays unarmed
// until SealLoad.
func NewShard(id int, cfg ShardConfig) (*Shard, error) {
	if cfg.DatasetBytes <= 0 {
		return nil, fmt.Errorf("cluster: shard %d needs DatasetBytes > 0", id)
	}
	scfg := baseline.DefaultStackConfig(cfg.DatasetBytes * 3) // live + dead + headroom
	scfg.QueuePairs = 1
	cachePages := int(cfg.DatasetBytes / 4096 / 8)
	if cachePages < 64 {
		cachePages = 64
	}
	scfg.VFS.PageCachePages = cachePages
	hmbBytes := int(cfg.DatasetBytes / 8)
	if min := 2 * scfg.Core.SlabSize; hmbBytes < min {
		hmbBytes = min // the slab arena needs room for at least two slabs
	}
	scfg.Core.HMB.DataBytes = hmbBytes
	scfg.Core.OverflowMaxBytes = hmbBytes
	scfg.Core.PageCacheFloorPages = cachePages / 8
	if cfg.ECCUncorrectableFrac > 0 {
		scfg.SSD.ECCUncorrectableFrac = cfg.ECCUncorrectableFrac
	}

	st, err := baseline.NewStack(scfg, cfg.FineReads)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", id, err)
	}
	store, ready, err := kv.Open(0, kv.VFSBackend{V: st.V}, kv.Config{
		NamePrefix: fmt.Sprintf("shard%d/seg-", id),
		FineReads:  cfg.FineReads,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", id, err)
	}
	// Shard time must stay monotone past open.
	return &Shard{Stack: st, ID: id, Store: store, cfg: cfg, loadClock: ready}, nil
}
