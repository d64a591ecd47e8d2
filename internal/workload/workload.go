// Package workload generates the paper's evaluation workloads: the five
// synthetic mixes of Table 1 (uniform and zipfian α=0.8 request
// distributions over a large file), a DLRM-flavoured recommender-system
// embedding-lookup stream (128 B vectors out of multi-gigabyte tables), and
// a LinkBench-flavoured social-graph operation stream (87.6 B nodes,
// 11.3 B edges, the default LinkBench operation mix).
//
// All generators are deterministic given their seed. Offsets in the
// synthetic mixes are page-aligned — the property that makes the paper's
// block-I/O traffic identical across mixes A–E (every request touches
// exactly one page, so only the location distribution matters; see Table 2
// and the discussion in §4.2).
package workload

import (
	"errors"
	"fmt"

	"pipette/internal/sim"
)

// Request is one generated operation.
type Request struct {
	Off   int64
	Size  int
	Write bool
}

// Generator produces a deterministic request stream.
type Generator interface {
	Name() string
	// FileSize is the dataset size the driver must create (preloaded).
	FileSize() int64
	Next() Request
}

// Dist selects the request location distribution.
type Dist int

// Distributions used by Table 1's footnote.
const (
	Uniform Dist = iota
	Zipfian
)

// String names the distribution.
func (d Dist) String() string {
	if d == Uniform {
		return "uniform"
	}
	return "zipfian"
}

// SyntheticConfig parameterizes a Table 1 mix.
type SyntheticConfig struct {
	Name       string
	FileSize   int64
	PageSize   int
	SmallRatio float64 // fraction of small reads
	SmallSize  int     // default 128 B
	LargeSize  int     // default 4096 B
	Dist       Dist
	Theta      float64 // zipfian exponent (paper: 0.8)
	Seed       uint64
}

// Mixes returns the five Table 1 configurations (A..E) over a file of the
// given size.
func Mixes(fileSize int64, pageSize int, dist Dist, seed uint64) []SyntheticConfig {
	ratios := []struct {
		name  string
		small float64
	}{
		{"A", 0.0}, {"B", 0.1}, {"C", 0.5}, {"D", 0.9}, {"E", 1.0},
	}
	out := make([]SyntheticConfig, 0, len(ratios))
	for _, r := range ratios {
		out = append(out, SyntheticConfig{
			Name:       r.name,
			FileSize:   fileSize,
			PageSize:   pageSize,
			SmallRatio: r.small,
			SmallSize:  128,
			LargeSize:  4096,
			Dist:       dist,
			Theta:      0.8,
			Seed:       seed,
		})
	}
	return out
}

// Synthetic draws page-aligned offsets from the configured distribution and
// sizes from the large/small mix.
type Synthetic struct {
	cfg    SyntheticConfig
	pages  uint64
	rng    *sim.RNG
	choose *KeyChooser
}

// NewSynthetic builds a Table 1 generator.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if cfg.PageSize <= 0 || cfg.FileSize < int64(cfg.PageSize) {
		return nil, errors.New("workload: file must hold at least one page")
	}
	if cfg.SmallRatio < 0 || cfg.SmallRatio > 1 {
		return nil, fmt.Errorf("workload: small ratio %g outside [0,1]", cfg.SmallRatio)
	}
	if cfg.SmallSize <= 0 || cfg.LargeSize <= 0 || cfg.LargeSize > cfg.PageSize {
		return nil, errors.New("workload: bad request sizes")
	}
	s := &Synthetic{
		cfg:   cfg,
		pages: uint64(cfg.FileSize) / uint64(cfg.PageSize),
		rng:   sim.NewRNG(cfg.Seed),
	}
	// Uniform draws share the size-draw stream; zipfian state is seeded
	// separately — both choices preserved from the original construction.
	rng := s.rng
	if cfg.Dist == Zipfian {
		rng = sim.NewRNG(cfg.Seed ^ 0x5a5a)
	}
	choose, err := NewKeyChooser(rng, cfg.Dist, s.pages, cfg.Theta)
	if err != nil {
		return nil, err
	}
	s.choose = choose
	return s, nil
}

// Name identifies the mix.
func (s *Synthetic) Name() string {
	return fmt.Sprintf("synthetic-%s-%s", s.cfg.Name, s.cfg.Dist)
}

// FileSize reports the dataset size.
func (s *Synthetic) FileSize() int64 { return s.cfg.FileSize }

// Next draws one read.
func (s *Synthetic) Next() Request {
	page := s.choose.Next()
	size := s.cfg.LargeSize
	if s.rng.Float64() < s.cfg.SmallRatio {
		size = s.cfg.SmallSize
	}
	return Request{Off: int64(page) * int64(s.cfg.PageSize), Size: size}
}

// FixedSize wraps a generator, forcing every request to one size — the
// Figure 8 latency sweep (workload E with request sizes 8 B .. 4 KiB).
type FixedSize struct {
	inner Generator
	size  int
}

// NewFixedSize forces size onto every request of inner.
func NewFixedSize(inner Generator, size int) *FixedSize {
	return &FixedSize{inner: inner, size: size}
}

// Name identifies the wrapped stream.
func (f *FixedSize) Name() string { return fmt.Sprintf("%s-%dB", f.inner.Name(), f.size) }

// FileSize reports the dataset size.
func (f *FixedSize) FileSize() int64 { return f.inner.FileSize() }

// Next draws a request and overrides its size.
func (f *FixedSize) Next() Request {
	r := f.inner.Next()
	r.Size = f.size
	if r.Off+int64(r.Size) > f.inner.FileSize() {
		r.Off = f.inner.FileSize() - int64(r.Size)
	}
	return r
}

// ByName builds the generator the command-line tools select by name: the
// Table 1 mixes "mixA".."mixE" over dist ("uniform" or "zipfian"), or the
// application workloads "recommender", "socialgraph" and "searchengine"
// sized to fileSize.
func ByName(wl, dist string, fileSize int64, seed uint64) (Generator, error) {
	d := Uniform
	if dist == "zipfian" {
		d = Zipfian
	} else if dist != "uniform" {
		return nil, fmt.Errorf("unknown distribution %q", dist)
	}
	switch wl {
	case "mixA", "mixB", "mixC", "mixD", "mixE":
		idx := int(wl[3] - 'A')
		return NewSynthetic(Mixes(fileSize, 4096, d, seed)[idx])
	case "recommender":
		cfg := DefaultRecommenderConfig()
		cfg.TableBytes = fileSize
		cfg.Seed = seed
		return NewRecommender(cfg)
	case "socialgraph":
		cfg := DefaultSocialGraphConfig()
		cfg.Nodes = uint64(fileSize) / 120 // ~96 B node + ~2 edges
		cfg.Seed = seed
		return NewSocialGraph(cfg)
	case "searchengine":
		cfg := DefaultSearchEngineConfig()
		cfg.Terms = uint64(fileSize) / 600 // entry + mean posting footprint
		cfg.Seed = seed
		return NewSearchEngine(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
}
