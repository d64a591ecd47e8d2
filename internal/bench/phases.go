package bench

import (
	"fmt"
	"io"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// phaseEngineIdxs are the two ends of the comparison: the conventional
// path and the full framework, so the breakdown shows where each spends
// time (indexes into EngineNames / newEngine).
var phaseEngineIdxs = []int{0, 4}

// writePhases replays workload mix C (50% small / 50% 4 KiB, uniform)
// against Block I/O and Pipette with every layer instrumented, then prints
// the per-phase latency table of each engine: mean/p50/p99 per span name,
// from the VFS syscall entry down to the NAND tR and bus transfer. When
// the pool's telemetry names files, the Pipette run's trace (Chrome
// trace-event JSON) and sampled time series (CSV) are written there too,
// through a telemetry.Exports set: the files are created before any cell
// runs (a bad path fails fast) and flushed even when a cell dies mid-run,
// so a partial trace survives for post-mortem reading. The two engine
// replays are pool cells; rendering happens after both complete, in the
// fixed engine order.
func writePhases(w io.Writer, s Scale, p *Pool) (err error) {
	opts := p.Telemetry()
	interval := opts.StatsInterval
	if interval <= 0 {
		interval = sim.Millisecond
	}
	mix := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)[2] // C
	type phaseOut struct {
		rec     *telemetry.Recorder
		sampler *telemetry.Sampler
		res     *Result
	}
	outs := make([]phaseOut, len(phaseEngineIdxs))

	// The Pipette engine's exports: registered before the cells run so the
	// files exist up front and the deferred Close flushes whatever the
	// replay produced, complete run or not.
	const pipetteIdx = 1 // index within phaseEngineIdxs
	var exports telemetry.Exports
	defer func() {
		if cerr := exports.Close(); err == nil {
			err = cerr
		}
	}()
	if opts.TraceOut != "" {
		if aerr := exports.Add(opts.TraceOut, func(fw io.Writer) error {
			if outs[pipetteIdx].rec == nil {
				return nil
			}
			return outs[pipetteIdx].rec.WriteChromeTrace(fw)
		}); aerr != nil {
			return aerr
		}
	}
	if opts.StatsOut != "" {
		if aerr := exports.Add(opts.StatsOut, func(fw io.Writer) error {
			if outs[pipetteIdx].sampler == nil {
				return nil
			}
			return outs[pipetteIdx].sampler.WriteCSV(fw)
		}); aerr != nil {
			return aerr
		}
	}

	cells := make([]Cell, 0, len(phaseEngineIdxs))
	for i, ei := range phaseEngineIdxs {
		i, ei := i, ei
		cells = append(cells, Cell{
			Label: "phases/" + EngineNames[ei],
			Run: func() (*Result, error) {
				e, err := newEngine(ei, s.stackConfig(s.FileSize()))
				if err != nil {
					return nil, err
				}
				gen, err := workload.NewSynthetic(mix)
				if err != nil {
					return nil, err
				}
				rec := telemetry.NewRecorder()
				e.SetTracer(rec)
				sampler, err := telemetry.NewSampler(interval, e.Probes())
				if err != nil {
					return nil, err
				}
				// Publish before the replay: a cell that dies mid-run still
				// leaves its partial recorder for the export flush.
				outs[i] = phaseOut{rec: rec, sampler: sampler}
				res, err := Run(e, gen, s.Requests, RunOpts{Sampler: sampler})
				if err != nil {
					return nil, fmt.Errorf("bench: phases %s: %w", e.Name(), err)
				}
				res.Workload = "mixC"
				outs[i].res = res
				return res, nil
			},
		})
	}
	if err := p.RunCells(cells); err != nil {
		return err
	}
	for i, ei := range phaseEngineIdxs {
		rec, sampler := outs[i].rec, outs[i].sampler
		name := EngineNames[ei]
		fmt.Fprintf(w, "=== Per-phase latency breakdown: %s (mix C uniform, scale %s, %d requests) ===\n",
			name, s.Name, s.Requests)
		fmt.Fprint(w, rec.Breakdown().Render())
		if dropped := rec.Dropped(); dropped > 0 {
			fmt.Fprintf(w, "(trace kept %d events, dropped %d past the cap; histograms cover all)\n",
				rec.Events(), dropped)
		}
		if res := outs[i].res; res != nil {
			fmt.Fprintf(w, "\nstage waterfall\n%s", res.Stages.Waterfall().Render())
			fmt.Fprintf(w, "\nresource utilization\n%s", res.Resources.Table(false).Render())
		}
		fmt.Fprintln(w)
		if name == "Pipette" {
			if cerr := exports.Close(); cerr != nil { // idempotent; defer no-ops
				return cerr
			}
			if opts.TraceOut != "" {
				fmt.Fprintf(w, "trace written to %s (open in Perfetto / chrome://tracing)\n", opts.TraceOut)
			}
			if opts.StatsOut != "" {
				fmt.Fprintf(w, "time series written to %s (%d samples at %v)\n",
					opts.StatsOut, sampler.Rows(), interval)
			}
		}
	}
	return nil
}
