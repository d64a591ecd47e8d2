package bench

import (
	"fmt"
	"io"

	"pipette/internal/baseline"
	"pipette/internal/metrics"
	"pipette/internal/workload"
)

// AblationVariant is one Pipette configuration under study.
type AblationVariant struct {
	Name   string
	Mutate func(*baseline.StackConfig)
}

// AblationVariants covers the design choices DESIGN.md calls out: the
// adaptive admission threshold (§3.2.2), the maintenance reassignment
// (§3.2.3), the dispatcher routing threshold, and the slab class geometry.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "default", Mutate: func(*baseline.StackConfig) {}},
		{Name: "fixed-threshold-1", Mutate: func(c *baseline.StackConfig) {
			c.Core.InitialThreshold = 1
			c.Core.MinThreshold = 1
			c.Core.MaxThreshold = 1
		}},
		{Name: "fixed-threshold-4", Mutate: func(c *baseline.StackConfig) {
			c.Core.InitialThreshold = 4
			c.Core.MinThreshold = 4
			c.Core.MaxThreshold = 4
		}},
		{Name: "no-reassignment", Mutate: func(c *baseline.StackConfig) {
			c.Core.MaintenanceEvery = 1 << 62
		}},
		{Name: "dispatch-64B", Mutate: func(c *baseline.StackConfig) {
			// 128 B reads now take the block path: shows the dispatcher's
			// routing is what keeps Pipette from degenerating to block I/O.
			c.Core.FineMaxBytes = 64
		}},
		{Name: "dispatch-4096B", Mutate: func(c *baseline.StackConfig) {
			c.Core.FineMaxBytes = 4096
		}},
		{Name: "coarse-slabs", Mutate: func(c *baseline.StackConfig) {
			c.Core.ItemSizes = []int{512, 4096}
		}},
		{Name: "no-migration", Mutate: func(c *baseline.StackConfig) {
			c.Core.OverflowMaxBytes = 0
		}},
	}
}

// RunAblation replays the mixed small/large zipfian workload (mix D, the
// most policy-sensitive one) against each Pipette variant, one pool cell
// per variant.
func RunAblation(s Scale, p *Pool) (*metrics.Table, error) {
	mix := workload.Mixes(s.FileSize(), 4096, workload.Zipfian, 0xab1a)[3] // D
	variants := AblationVariants()
	type ablOut struct {
		res    *Result
		finalT uint32
	}
	outs := make([]ablOut, len(variants))
	cells := make([]Cell, 0, len(variants))
	for vi, v := range variants {
		vi, v := vi, v
		cells = append(cells, Cell{
			Label: "ablation/" + v.Name,
			Run: func() (*Result, error) {
				cfg := s.stackConfig(s.FileSize())
				v.Mutate(&cfg)
				eng, err := baseline.NewPipette(cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: ablation %s: %w", v.Name, err)
				}
				gen, err := workload.NewSynthetic(mix)
				if err != nil {
					return nil, err
				}
				res, err := Run(eng, gen, s.Requests, RunOpts{})
				if err != nil {
					return nil, fmt.Errorf("bench: ablation %s: %w", v.Name, err)
				}
				res.Name = "Pipette/" + v.Name
				outs[vi] = ablOut{res: res, finalT: eng.Core().Threshold()}
				return res, nil
			},
		})
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}
	t := &metrics.Table{Header: []string{
		"Variant", "ops/s", "Traffic MB", "FGRC hit %", "Mean lat us", "Final T",
	}}
	for vi, v := range variants {
		snap := outs[vi].res.Snapshot
		t.AddRow(v.Name,
			fmt.Sprintf("%.0f", snap.ThroughputOpsPerSec()),
			fmt.Sprintf("%.1f", snap.IO.TrafficMB()),
			fmt.Sprintf("%.1f", snap.FineCache.HitRatio()*100),
			fmt.Sprintf("%.1f", snap.MeanLat.Micros()),
			fmt.Sprintf("%d", outs[vi].finalT),
		)
	}
	return t, nil
}

func writeAblation(w io.Writer, s Scale, p *Pool) error {
	t, err := RunAblation(s, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== Ablation: Pipette design choices on mix D zipfian (scale %s) ===\n", s.Name)
	fmt.Fprint(w, t.Render())
	fmt.Fprintln(w)
	return nil
}
