package bench

import (
	"fmt"
	"io"

	"pipette/internal/metrics"
	"pipette/internal/workload"
)

// SyntheticMatrix holds results for the 5 engines × 5 mixes of one
// distribution: the raw material of Figure 6 + Table 2 (uniform) and
// Figure 7 + Table 3 (zipfian).
type SyntheticMatrix struct {
	Dist    workload.Dist
	Mixes   []string
	Results map[string]map[string]*Result // engine -> mix -> result
}

// RunSynthetic executes the Table 1 grid for one distribution: every
// (mix, engine) pair is one pool cell over a private system.
func RunSynthetic(s Scale, dist workload.Dist, p *Pool) (*SyntheticMatrix, error) {
	m := &SyntheticMatrix{
		Dist:    dist,
		Results: make(map[string]map[string]*Result),
	}
	mixes := workload.Mixes(s.FileSize(), 4096, dist, 0xbead)
	grid := make([]*Result, len(mixes)*len(EngineNames))
	cells := make([]Cell, 0, len(grid))
	for mi, mixCfg := range mixes {
		m.Mixes = append(m.Mixes, mixCfg.Name)
		for ei, name := range EngineNames {
			mixCfg, ei := mixCfg, ei
			slot := &grid[mi*len(EngineNames)+ei]
			cells = append(cells, Cell{
				Label: fmt.Sprintf("synthetic-%s/%s/%s", dist, mixCfg.Name, name),
				Run: func() (*Result, error) {
					e, err := newEngine(ei, s.stackConfig(s.FileSize()))
					if err != nil {
						return nil, err
					}
					gen, err := workload.NewSynthetic(mixCfg)
					if err != nil {
						return nil, err
					}
					res, err := Run(e, gen, s.Requests, RunOpts{VerifyEvery: s.Requests/64 + 1})
					if err != nil {
						return nil, fmt.Errorf("bench: %s mix %s: %w", e.Name(), mixCfg.Name, err)
					}
					*slot = res
					return res, nil
				},
			})
		}
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	for mi := range mixes {
		for ei, name := range EngineNames {
			if m.Results[name] == nil {
				m.Results[name] = make(map[string]*Result)
			}
			m.Results[name][mixes[mi].Name] = grid[mi*len(EngineNames)+ei]
		}
	}
	return m, nil
}

// ThroughputTable renders the normalized-throughput figure (Figures 6/7):
// each engine's ops/s divided by Block I/O's on the same mix.
func (m *SyntheticMatrix) ThroughputTable() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"Engine \\ Mix"}, m.Mixes...)}
	for _, name := range EngineNames {
		row := []string{name}
		for _, mix := range m.Mixes {
			blk := m.Results["Block I/O"][mix].Snapshot.ThroughputOpsPerSec()
			cur := m.Results[name][mix].Snapshot.ThroughputOpsPerSec()
			row = append(row, fmt.Sprintf("%.2fx", cur/blk))
		}
		t.AddRow(row...)
	}
	return t
}

// TrafficTable renders the I/O-traffic table (Tables 2/3), in MB.
func (m *SyntheticMatrix) TrafficTable() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"Engine \\ Mix"}, m.Mixes...)}
	for _, name := range EngineNames {
		row := []string{name}
		for _, mix := range m.Mixes {
			row = append(row, fmt.Sprintf("%.1f", m.Results[name][mix].Snapshot.IO.TrafficMB()))
		}
		t.AddRow(row...)
	}
	return t
}

// writeSynthetic runs one distribution and prints both artifacts.
func writeSynthetic(w io.Writer, s Scale, dist workload.Dist, figName, tableName string, p *Pool) error {
	m, err := RunSynthetic(s, dist, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s: normalized throughput, %s distribution (scale %s, %d requests) ===\n",
		figName, dist, s.Name, s.Requests)
	fmt.Fprint(w, m.ThroughputTable().Render())
	fmt.Fprintf(w, "\n=== %s: I/O traffic (MB), %s distribution ===\n", tableName, dist)
	fmt.Fprint(w, m.TrafficTable().Render())
	fmt.Fprintln(w)
	return nil
}

// LatencySweep is Figure 8: average read latency of workload E (uniform)
// for request sizes 8 B .. 4 KiB, per engine, measured after a warmup phase
// so caches are warm (the paper reports steady-state averages).
func LatencySweep(s Scale, p *Pool) (map[string]map[int]*Result, error) {
	out := make(map[string]map[int]*Result)
	hotBytes := int64(s.LatencyFilePages) * 4096
	grid := make([]*Result, len(s.LatencySizes)*len(EngineNames))
	cells := make([]Cell, 0, len(grid))
	for si, size := range s.LatencySizes {
		for ei, name := range EngineNames {
			size, ei := size, ei
			slot := &grid[si*len(EngineNames)+ei]
			cells = append(cells, Cell{
				Label: fmt.Sprintf("latency/%dB/%s", size, name),
				Run: func() (*Result, error) {
					cfg := s.stackConfig(hotBytes)
					// Figure 8 drives every size through each framework's
					// native path: raise the Dispatcher threshold so 4 KiB
					// still goes byte-granular, and use the hot-region
					// memory configuration (see Scale).
					cfg.Core.FineMaxBytes = 4096
					cfg.Core.HMB.TempSlot = 4096
					cfg.Core.HMB.DataBytes = int(hotBytes) * 2
					cfg.Core.OverflowMaxBytes = int(hotBytes) * 2
					cfg.VFS.PageCachePages = s.LatencyPCPages
					cfg.Core.PageCacheFloorPages = s.LatencyPCPages / 8
					e, err := newEngine(ei, cfg)
					if err != nil {
						return nil, err
					}
					mix := workload.Mixes(hotBytes, 4096, workload.Uniform, 0xf18)[4] // E
					gen, err := workload.NewSynthetic(mix)
					if err != nil {
						return nil, err
					}
					fixed := workload.NewFixedSize(gen, size)
					res, err := Run(e, fixed, s.LatencyRequests, RunOpts{Warmup: s.LatencyWarmup})
					if err != nil {
						return nil, fmt.Errorf("bench: fig8 %s %dB: %w", e.Name(), size, err)
					}
					*slot = res
					return res, nil
				},
			})
		}
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	for si, size := range s.LatencySizes {
		for ei, name := range EngineNames {
			if out[name] == nil {
				out[name] = make(map[int]*Result)
			}
			out[name][size] = grid[si*len(EngineNames)+ei]
		}
	}
	return out, nil
}

func writeLatencySweep(w io.Writer, s Scale, p *Pool) error {
	res, err := LatencySweep(s, p)
	if err != nil {
		return err
	}
	header := []string{"Engine \\ Size"}
	for _, size := range s.LatencySizes {
		header = append(header, fmt.Sprintf("%dB", size))
	}
	t := &metrics.Table{Header: header}
	for _, name := range EngineNames {
		row := []string{name}
		for _, size := range s.LatencySizes {
			row = append(row, fmt.Sprintf("%.1f", res[name][size].Snapshot.MeanLat.Micros()))
		}
		t.AddRow(row...)
	}
	fmt.Fprintf(w, "=== Figure 8: mean read latency (us), workload E uniform, warm caches (scale %s) ===\n", s.Name)
	fmt.Fprint(w, t.Render())
	fmt.Fprintln(w)
	return nil
}
