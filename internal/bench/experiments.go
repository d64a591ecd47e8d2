package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"pipette/internal/workload"
)

// Experiment regenerates one or more of the paper's artifacts. Run renders
// into w, scheduling its simulation cells on p (nil runs serially); the
// output bytes are identical at any worker count.
type Experiment struct {
	ID        string
	Artifacts []string // paper tables/figures this run produces
	Title     string
	Run       func(w io.Writer, s Scale, p *Pool) error
}

// Experiments returns the full suite.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:        "synthetic-uniform",
			Artifacts: []string{"fig6", "table2"},
			Title:     "Synthetic mixes A-E, uniform distribution (Figure 6 + Table 2)",
			Run: func(w io.Writer, s Scale, p *Pool) error {
				return writeSynthetic(w, s, workload.Uniform, "Figure 6", "Table 2", p)
			},
		},
		{
			ID:        "synthetic-zipfian",
			Artifacts: []string{"fig7", "table3"},
			Title:     "Synthetic mixes A-E, zipfian(0.8) distribution (Figure 7 + Table 3)",
			Run: func(w io.Writer, s Scale, p *Pool) error {
				return writeSynthetic(w, s, workload.Zipfian, "Figure 7", "Table 3", p)
			},
		},
		{
			ID:        "latency",
			Artifacts: []string{"fig8"},
			Title:     "Read latency vs request size, workload E uniform (Figure 8)",
			Run:       writeLatencySweep,
		},
		{
			ID:        "apps",
			Artifacts: []string{"fig1", "fig9a", "fig9b", "table4"},
			Title:     "Real applications: recommender + social graph (Figures 1, 9; Table 4)",
			Run:       writeApps,
		},
		{
			ID:        "phases",
			Artifacts: []string{"breakdown"},
			Title:     "Per-phase latency breakdown, VFS to NAND (observability)",
			Run:       writePhases,
		},
		{
			ID:        "ablation",
			Artifacts: []string{"ablation"},
			Title:     "Pipette design-choice ablations (beyond the paper)",
			Run:       writeAblation,
		},
		{
			ID:        "sensitivity",
			Artifacts: []string{"sensitivity", "search"},
			Title:     "Cache-size sensitivity + search-engine workload (beyond the paper)",
			Run:       writeSensitivity,
		},
		{
			ID:        "kv",
			Artifacts: []string{"ycsb"},
			Title:     "Log-structured KV store: YCSB x engine x index matrix (beyond the paper)",
			Run:       writeKV,
		},
		{
			ID:        "faults",
			Artifacts: []string{"reliability"},
			Title:     "Fault injection: RBER x workload sweep, goodput and recovery (beyond the paper)",
			Run:       writeFaults,
		},
		{
			ID:        "qdepth",
			Artifacts: []string{"saturation"},
			Title:     "Open-loop saturation: arrival rate x queue depth x engine (beyond the paper)",
			Run:       writeQDepth,
		},
		{
			ID:        "cluster",
			Artifacts: []string{"tier"},
			Title:     "Sharded serving tier: replication x skew, per-tenant QoS, degraded mode (beyond the paper)",
			Run:       writeCluster,
		},
	}
}

// Find resolves an experiment by its ID or by one of the paper artifacts it
// produces (e.g. "fig6" or "table2" both select synthetic-uniform).
func Find(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == name {
			return e, nil
		}
		for _, a := range e.Artifacts {
			if a == name {
				return e, nil
			}
		}
	}
	var known []string
	for _, e := range Experiments() {
		known = append(known, e.ID)
		known = append(known, e.Artifacts...)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, known)
}

// RunAll executes every experiment. With a nil pool the experiments run
// serially, streaming straight into w. With a pool they all render
// concurrently into private buffers — the pool's worker bound still caps
// the simulation cells actually in flight — and the buffers print in the
// canonical suite order, so the output is byte-identical to the serial run.
func RunAll(w io.Writer, s Scale, p *Pool) error {
	exps := Experiments()
	if p == nil || p.Workers() <= 1 {
		for _, e := range exps {
			fmt.Fprintf(w, "### %s\n\n", e.Title)
			if err := e.Run(w, s, p); err != nil {
				return fmt.Errorf("bench: experiment %s: %w", e.ID, err)
			}
		}
		return nil
	}

	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			fmt.Fprintf(&bufs[i], "### %s\n\n", e.Title)
			errs[i] = e.Run(&bufs[i], s, p)
		}()
	}
	wg.Wait()
	for i, e := range exps {
		if errs[i] != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.ID, errs[i])
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}
