package workload

import (
	"errors"
	"fmt"

	"pipette/internal/sim"
)

// RecommenderConfig parameterizes the deep-learning recommendation workload
// of §4.3: sparse features are looked up as fixed-size embedding vectors
// from large tables resident on the SSD (DLRM over the Criteo dataset in
// the paper; 128 B vectors from 4.1 GB of tables).
type RecommenderConfig struct {
	TableBytes int64   // total embedding storage (paper: 4.1 GiB)
	VectorSize int     // bytes per embedding (paper: 128)
	Tables     int     // sparse features, one table each (DLRM/Criteo: 26)
	SizeSkew   float64 // geometric ratio between consecutive table sizes
	Theta      float64 // per-table popularity skew

	// Temporal locality: with probability HotProb a lookup revisits one of
	// the last HotWindow distinct vectors instead of drawing fresh —
	// production embedding streams show exactly this behaviour (Bandana
	// reports >90% of accesses landing in a small recently-hot set).
	HotProb   float64
	HotWindow int

	Seed uint64
}

// DefaultRecommenderConfig mirrors the paper at full scale; the benchmark
// harness scales TableBytes down for quick runs. Criteo's tables span six
// orders of magnitude in cardinality (a handful of values up to tens of
// millions), so table sizes fall geometrically, and embedding popularity is
// strongly skewed (Eisenman et al. report >90% of lookups hitting a small
// hot set) — hence the near-1 zipfian exponent.
func DefaultRecommenderConfig() RecommenderConfig {
	return RecommenderConfig{
		TableBytes: 4 << 30,
		VectorSize: 128,
		Tables:     26,
		SizeSkew:   0.7,
		Theta:      0.5,
		HotProb:    0.7,
		HotWindow:  4096,
		Seed:       0xd1e2,
	}
}

// Recommender emits one embedding lookup per Next, cycling through the
// sparse-feature tables the way one inference batch gathers its features.
type Recommender struct {
	cfg      RecommenderConfig
	vecs     []uint64 // per-table vector counts
	base     []int64  // per-table byte offsets within the file
	size     int64
	next     int
	choosers []*KeyChooser

	rng    *sim.RNG
	recent []int64 // ring of recently looked-up distinct offsets (hot set)
	inRing map[int64]bool
	rpos   int
}

// NewRecommender builds the generator.
func NewRecommender(cfg RecommenderConfig) (*Recommender, error) {
	if cfg.VectorSize <= 0 || cfg.Tables <= 0 {
		return nil, errors.New("workload: recommender needs positive vector size and tables")
	}
	if cfg.SizeSkew <= 0 || cfg.SizeSkew > 1 {
		return nil, errors.New("workload: SizeSkew must be in (0,1]")
	}
	if cfg.HotProb < 0 || cfg.HotProb >= 1 || (cfg.HotProb > 0 && cfg.HotWindow < 1) {
		return nil, errors.New("workload: bad hot-set parameters")
	}
	// Geometric table sizes: weight_i = skew^i, normalized to TableBytes.
	weights := make([]float64, cfg.Tables)
	var total float64
	w := 1.0
	for i := range weights {
		weights[i] = w
		total += w
		w *= cfg.SizeSkew
	}
	r := &Recommender{
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed ^ 0xcafe),
		inRing: make(map[int64]bool),
	}
	rng := sim.NewRNG(cfg.Seed)
	var off int64
	for i := 0; i < cfg.Tables; i++ {
		bytes := int64(float64(cfg.TableBytes) * weights[i] / total)
		vecs := uint64(bytes) / uint64(cfg.VectorSize)
		if vecs == 0 {
			if i == 0 {
				return nil, errors.New("workload: tables too small for one vector")
			}
			// The smallest Criteo-like tables hold a handful of values;
			// clamp to one vector.
			vecs = 1
		}
		r.vecs = append(r.vecs, vecs)
		r.base = append(r.base, off)
		off += int64(vecs) * int64(cfg.VectorSize)
		choose, err := NewKeyChooser(rng.Split(), Zipfian, vecs, cfg.Theta)
		if err != nil {
			return nil, err
		}
		r.choosers = append(r.choosers, choose)
	}
	r.size = off
	// Pre-populate the hot set so temporal locality spans the full window
	// from the first request (and is therefore scale-independent). The ring
	// holds distinct offsets; small tables saturate quickly, so cap the
	// attempts in case the window exceeds the total distinct vectors.
	for attempts := 0; r.cfg.HotWindow > 0 && len(r.recent) < r.cfg.HotWindow &&
		attempts < 8*r.cfg.HotWindow; attempts++ {
		t := r.next
		r.next = (r.next + 1) % r.cfg.Tables
		vec := r.choosers[t].Next()
		r.admitHot(r.base[t] + int64(vec)*int64(r.cfg.VectorSize))
	}
	return r, nil
}

// admitHot inserts a distinct offset into the hot ring, displacing the
// oldest slot once full.
func (r *Recommender) admitHot(off int64) {
	if r.cfg.HotWindow <= 0 || r.inRing[off] {
		return
	}
	if len(r.recent) < r.cfg.HotWindow {
		r.recent = append(r.recent, off)
	} else {
		delete(r.inRing, r.recent[r.rpos])
		r.recent[r.rpos] = off
		r.rpos = (r.rpos + 1) % r.cfg.HotWindow
	}
	r.inRing[off] = true
}

// Name identifies the workload.
func (r *Recommender) Name() string { return "recommender" }

// FileSize reports the embedding-store size.
func (r *Recommender) FileSize() int64 { return r.size }

// TableVectors exposes per-table cardinalities (tests).
func (r *Recommender) TableVectors() []uint64 {
	out := make([]uint64, len(r.vecs))
	copy(out, r.vecs)
	return out
}

// Next draws one embedding lookup: usually a revisit of the recent hot set,
// otherwise a fresh zipfian draw from the next sparse-feature table.
func (r *Recommender) Next() Request {
	if len(r.recent) > 0 && r.rng.Float64() < r.cfg.HotProb {
		off := r.recent[int(r.rng.Uint64n(uint64(len(r.recent))))]
		return Request{Off: off, Size: r.cfg.VectorSize}
	}
	t := r.next
	r.next = (r.next + 1) % r.cfg.Tables
	vec := r.choosers[t].Next()
	off := r.base[t] + int64(vec)*int64(r.cfg.VectorSize)
	r.admitHot(off)
	return Request{Off: off, Size: r.cfg.VectorSize}
}

// String describes the configuration.
func (r *Recommender) String() string {
	return fmt.Sprintf("recommender(%d tables, %d B total, %dB vectors)",
		r.cfg.Tables, r.size, r.cfg.VectorSize)
}
