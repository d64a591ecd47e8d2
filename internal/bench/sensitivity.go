package bench

import (
	"fmt"
	"io"

	"pipette/internal/baseline"
	"pipette/internal/metrics"
	"pipette/internal/workload"
)

// Two sensitivity studies beyond the paper: how Pipette's win depends on
// (a) the fine-grained read cache's arena size, and (b) the workload — the
// paper's intro also motivates search engines, so the WiSER-flavoured
// inverted-index workload runs against all five engines here.

// RunCacheSensitivity sweeps the fine-cache arena over mix E zipfian and
// reports hit ratio, traffic, and throughput per size. The Block I/O
// reference and every arena size run as pool cells; rows render after the
// grid completes so the normalization column sees the reference.
func RunCacheSensitivity(s Scale, p *Pool) (*metrics.Table, error) {
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0x5e45)[4] // E
	fracs := []int{32, 8, 2, 1}
	results := make([]*Result, 1+len(fracs)) // [0] = Block I/O reference
	cells := make([]Cell, 0, len(results))

	cells = append(cells, Cell{
		Label: "sensitivity/blockio-ref",
		Run: func() (*Result, error) {
			blkEng, err := baseline.NewBlockIO(s.stackConfig(s.FileSize()))
			if err != nil {
				return nil, err
			}
			gen, err := workload.NewSynthetic(mix)
			if err != nil {
				return nil, err
			}
			res, err := Run(blkEng, gen, s.Requests, RunOpts{})
			if err != nil {
				return nil, err
			}
			results[0] = res
			return res, nil
		},
	})
	for fi, frac := range fracs {
		fi, frac := fi, frac
		cells = append(cells, Cell{
			Label: fmt.Sprintf("sensitivity/arena-1of%d", frac),
			Run: func() (*Result, error) {
				cfg := s.stackConfig(s.FileSize())
				cfg.SetCaches(s.PageCachePages, s.FGRCDataBytes/frac)
				// Keep at least 8 slabs in the smallest arenas.
				if cfg.Core.SlabSize > cfg.Core.HMB.DataBytes/8 {
					cfg.Core.SlabSize = cfg.Core.HMB.DataBytes / 8
				}
				eng, err := baseline.NewPipette(cfg)
				if err != nil {
					return nil, err
				}
				gen, err := workload.NewSynthetic(mix)
				if err != nil {
					return nil, err
				}
				res, err := Run(eng, gen, s.Requests, RunOpts{})
				if err != nil {
					return nil, fmt.Errorf("bench: sensitivity 1/%d: %w", frac, err)
				}
				res.Name = fmt.Sprintf("Pipette/arena-1of%d", frac)
				results[1+fi] = res
				return res, nil
			},
		})
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}

	t := &metrics.Table{Header: []string{
		"FGRC arena", "ops/s", "vs Block I/O", "Traffic MB", "FGRC hit %", "FGRC mem MB",
	}}
	blkOps := results[0].Snapshot.ThroughputOpsPerSec()
	t.AddRow("(Block I/O)",
		fmt.Sprintf("%.0f", blkOps), "1.00x",
		fmt.Sprintf("%.1f", results[0].Snapshot.IO.TrafficMB()), "-", "-")
	for fi, frac := range fracs {
		snap := results[1+fi].Snapshot
		t.AddRow(
			fmt.Sprintf("1/%d (%.1f MB)", frac, float64(s.FGRCDataBytes/frac)/(1<<20)),
			fmt.Sprintf("%.0f", snap.ThroughputOpsPerSec()),
			fmt.Sprintf("%.2fx", snap.ThroughputOpsPerSec()/blkOps),
			fmt.Sprintf("%.1f", snap.IO.TrafficMB()),
			fmt.Sprintf("%.1f", snap.FineCache.HitRatio()*100),
			fmt.Sprintf("%.1f", snap.MemoryMB),
		)
	}
	return t, nil
}

// RunSearchEngine replays the inverted-index workload against all five
// engines, one pool cell per engine.
func RunSearchEngine(s Scale, p *Pool) (*metrics.Table, error) {
	cfg := workload.DefaultSearchEngineConfig()
	// Vocabulary scaled so the index is a few times the page cache.
	cfg.Terms = uint64(s.PageCachePages) * 8
	results := make([]*Result, len(EngineNames))
	cells := make([]Cell, 0, len(EngineNames))
	for ei, name := range EngineNames {
		ei := ei
		cells = append(cells, Cell{
			Label: "search/" + name,
			Run: func() (*Result, error) {
				gen, err := workload.NewSearchEngine(cfg)
				if err != nil {
					return nil, err
				}
				e, err := newEngine(ei, s.stackConfig(gen.FileSize()))
				if err != nil {
					return nil, err
				}
				res, err := Run(e, gen, s.AppRequests, RunOpts{VerifyEvery: s.AppRequests/64 + 1})
				if err != nil {
					return nil, fmt.Errorf("bench: search %s: %w", e.Name(), err)
				}
				results[ei] = res
				return res, nil
			},
		})
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	t := &metrics.Table{Header: []string{
		"Engine", "ops/s", "vs Block I/O", "Traffic MB", "Mean lat us",
	}}
	blkOps := results[0].Snapshot.ThroughputOpsPerSec()
	for ei, name := range EngineNames {
		snap := results[ei].Snapshot
		ops := snap.ThroughputOpsPerSec()
		t.AddRow(name,
			fmt.Sprintf("%.0f", ops),
			fmt.Sprintf("%.2fx", ops/blkOps),
			fmt.Sprintf("%.1f", snap.IO.TrafficMB()),
			fmt.Sprintf("%.1f", snap.MeanLat.Micros()),
		)
	}
	return t, nil
}

// RunWriteBuffer contrasts the controller write buffer on the write-heavy
// social-graph workload: buffered writes acknowledge at DMA speed instead
// of paying tPROG inline.
func RunWriteBuffer(s Scale, p *Pool) (*metrics.Table, error) {
	gcfg := workload.DefaultSocialGraphConfig()
	gcfg.Nodes = s.GraphNodes
	bufSizes := []int{0, 1024}
	results := make([]*Result, len(bufSizes))
	cells := make([]Cell, 0, len(bufSizes))
	for bi, bufPages := range bufSizes {
		bi, bufPages := bi, bufPages
		cells = append(cells, Cell{
			Label: fmt.Sprintf("writebuffer/%dpages", bufPages),
			Run: func() (*Result, error) {
				gen, err := workload.NewSocialGraph(gcfg)
				if err != nil {
					return nil, err
				}
				cfg := s.stackConfig(gen.FileSize())
				cfg.SSD.WriteBufferPages = bufPages
				eng, err := baseline.NewPipette(cfg)
				if err != nil {
					return nil, err
				}
				res, err := Run(eng, gen, s.AppRequests, RunOpts{})
				if err != nil {
					return nil, fmt.Errorf("bench: write buffer %d: %w", bufPages, err)
				}
				res.Name = fmt.Sprintf("Pipette/wb-%dpages", bufPages)
				results[bi] = res
				return res, nil
			},
		})
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	t := &metrics.Table{Header: []string{"Config", "ops/s", "Mean lat us", "P99 lat us"}}
	for bi, bufPages := range bufSizes {
		label := "no write buffer"
		if bufPages > 0 {
			label = fmt.Sprintf("write buffer %d pages", bufPages)
		}
		t.AddRow(label,
			fmt.Sprintf("%.0f", results[bi].Snapshot.ThroughputOpsPerSec()),
			fmt.Sprintf("%.1f", results[bi].Snapshot.MeanLat.Micros()),
			fmt.Sprintf("%.1f", results[bi].Snapshot.P99Lat.Micros()),
		)
	}
	return t, nil
}

func writeSensitivity(w io.Writer, s Scale, p *Pool) error {
	t, err := RunCacheSensitivity(s, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== Sensitivity: fine-cache arena size, mix E uniform (scale %s) ===\n", s.Name)
	fmt.Fprint(w, t.Render())
	t2, err := RunSearchEngine(s, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== Search engine (WiSER-flavoured inverted index, scale %s) ===\n", s.Name)
	fmt.Fprint(w, t2.Render())
	t3, err := RunWriteBuffer(s, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== Controller write buffer, social-graph workload (scale %s) ===\n", s.Name)
	fmt.Fprint(w, t3.Render())
	fmt.Fprintln(w)
	return nil
}
