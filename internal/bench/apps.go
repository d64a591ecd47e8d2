package bench

import (
	"fmt"
	"io"

	"pipette/internal/metrics"
	"pipette/internal/workload"
)

// AppResults holds the 5 engines × 2 applications grid behind Figure 9,
// Table 4, and the Figure 1 motivation chart.
type AppResults struct {
	Apps    []string
	Results map[string]map[string]*Result // engine -> app -> result
}

// RunApps executes the real-application workloads: the recommender-system
// embedding lookups and the LinkBench-flavoured social graph. Every
// (app, engine) pair is one pool cell.
func RunApps(s Scale, p *Pool) (*AppResults, error) {
	out := &AppResults{
		Apps:    []string{"Recommender System", "Social Graph"},
		Results: make(map[string]map[string]*Result),
	}

	makeGen := func(app string) (workload.Generator, error) {
		switch app {
		case "Recommender System":
			cfg := workload.DefaultRecommenderConfig()
			cfg.TableBytes = s.RecTableBytes
			// The hot working set must outgrow the page-granular cache but
			// fit the fine cache's compact items — the regime the paper's
			// recommender evaluation lives in.
			cfg.HotWindow = 3 * s.PageCachePages
			return workload.NewRecommender(cfg)
		default:
			cfg := workload.DefaultSocialGraphConfig()
			cfg.Nodes = s.GraphNodes
			return workload.NewSocialGraph(cfg)
		}
	}

	grid := make([]*Result, len(out.Apps)*len(EngineNames))
	cells := make([]Cell, 0, len(grid))
	for ai, app := range out.Apps {
		for ei, name := range EngineNames {
			app, ei := app, ei
			slot := &grid[ai*len(EngineNames)+ei]
			cells = append(cells, Cell{
				Label: fmt.Sprintf("apps/%s/%s", app, name),
				Run: func() (*Result, error) {
					gen, err := makeGen(app)
					if err != nil {
						return nil, err
					}
					e, err := newEngine(ei, s.stackConfig(gen.FileSize()))
					if err != nil {
						return nil, err
					}
					res, err := Run(e, gen, s.AppRequests, RunOpts{VerifyEvery: s.AppRequests/64 + 1})
					if err != nil {
						return nil, fmt.Errorf("bench: %s on %s: %w", e.Name(), app, err)
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
	for ai, app := range out.Apps {
		for ei, name := range EngineNames {
			if out.Results[name] == nil {
				out.Results[name] = make(map[string]*Result)
			}
			out.Results[name][app] = grid[ai*len(EngineNames)+ei]
		}
	}
	return out, nil
}

// ThroughputTable renders Figure 9(a): throughput normalized to Block I/O.
func (a *AppResults) ThroughputTable() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"Engine \\ App"}, a.Apps...)}
	for _, name := range EngineNames {
		row := []string{name}
		for _, app := range a.Apps {
			blk := a.Results["Block I/O"][app].Snapshot.ThroughputOpsPerSec()
			cur := a.Results[name][app].Snapshot.ThroughputOpsPerSec()
			row = append(row, fmt.Sprintf("%.2fx", cur/blk))
		}
		t.AddRow(row...)
	}
	return t
}

// TrafficTable renders Figure 9(b): read I/O traffic in MB.
func (a *AppResults) TrafficTable() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"Engine \\ App"}, a.Apps...)}
	for _, name := range EngineNames {
		row := []string{name}
		for _, app := range a.Apps {
			row = append(row, fmt.Sprintf("%.1f", a.Results[name][app].Snapshot.IO.TrafficMB()))
		}
		t.AddRow(row...)
	}
	return t
}

// CacheTable renders Table 4: hit ratio and memory usage of the page cache
// (Block I/O) vs the fine-grained read cache (Pipette).
func (a *AppResults) CacheTable() *metrics.Table {
	t := &metrics.Table{Header: []string{"System", "App", "Hit Ratio (%)", "Memory (MB)"}}
	for _, app := range a.Apps {
		blk := a.Results["Block I/O"][app].Snapshot
		t.AddRow("Block I/O", app,
			fmt.Sprintf("%.2f", blk.PageCache.HitRatio()*100),
			fmt.Sprintf("%.0f", blk.MemoryMB))
	}
	for _, app := range a.Apps {
		pip := a.Results["Pipette"][app].Snapshot
		t.AddRow("Pipette", app,
			fmt.Sprintf("%.2f", pip.FineCache.HitRatio()*100),
			fmt.Sprintf("%.0f", pip.MemoryMB))
	}
	return t
}

// MotivationTable renders Figure 1: 2B-SSD (DMA mode) vs Block I/O on the
// two applications, normalized I/O traffic and throughput.
func (a *AppResults) MotivationTable() *metrics.Table {
	t := &metrics.Table{Header: []string{"Metric", "System", a.Apps[0], a.Apps[1]}}
	for _, name := range []string{"Block I/O", "2B-SSD DMA"} {
		row := []string{"I/O traffic (norm.)", name}
		for _, app := range a.Apps {
			blk := a.Results["Block I/O"][app].Snapshot.IO.TrafficMB()
			cur := a.Results[name][app].Snapshot.IO.TrafficMB()
			row = append(row, fmt.Sprintf("%.2f", cur/blk))
		}
		t.AddRow(row...)
	}
	for _, name := range []string{"Block I/O", "2B-SSD DMA"} {
		row := []string{"Throughput (norm.)", name}
		for _, app := range a.Apps {
			blk := a.Results["Block I/O"][app].Snapshot.ThroughputOpsPerSec()
			cur := a.Results[name][app].Snapshot.ThroughputOpsPerSec()
			row = append(row, fmt.Sprintf("%.2f", cur/blk))
		}
		t.AddRow(row...)
	}
	return t
}

func writeApps(w io.Writer, s Scale, p *Pool) error {
	res, err := RunApps(s, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== Figure 9(a): real-application throughput, normalized to Block I/O (scale %s) ===\n", s.Name)
	fmt.Fprint(w, res.ThroughputTable().Render())
	fmt.Fprintln(w, "\n=== Figure 9(b): real-application I/O traffic (MB) ===")
	fmt.Fprint(w, res.TrafficTable().Render())
	fmt.Fprintln(w, "\n=== Table 4: page cache vs fine-grained read cache ===")
	fmt.Fprint(w, res.CacheTable().Render())
	fmt.Fprintln(w, "\n=== Figure 1: motivation — 2B-SSD vs Block I/O ===")
	fmt.Fprint(w, res.MotivationTable().Render())
	fmt.Fprintln(w)
	return nil
}
