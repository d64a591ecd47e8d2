package bench

import (
	"fmt"
	"io"

	"pipette/internal/baseline"
	"pipette/internal/fault"
	"pipette/internal/metrics"
	"pipette/internal/sim"
	"pipette/internal/workload"
)

// FaultLevels is the reliability sweep: each level scales the NAND raw bit
// error rate (rber*N resolves against the cell type's datasheet rate) and
// sets transport-corruption probabilities for the program, DMA, ring, and
// writeback sites. "none" is the control — the empty profile, i.e. the Nop
// injector.
var FaultLevels = []struct {
	Name    string
	Profile string
}{
	{"none", ""},
	{"low", "nand.read:rber*5,nand.program:0.002,nvme.dma:0.001,hmb.ring:0.002,vfs.writeback:0.002"},
	{"mid", "nand.read:rber*20,nand.program:0.005,nvme.dma:0.005,hmb.ring:0.01,vfs.writeback:0.005"},
	{"high", "nand.read:rber*80,nand.program:0.02,nvme.dma:0.02,hmb.ring:0.05,vfs.writeback:0.02"},
}

// faultEngineIdx selects the engines the sweep compares: the conventional
// block path against the full framework, whose fine-read path adds the ring
// and DMA surfaces (and their fallbacks).
var faultEngineIdx = []int{0, 4}

// faultWriteEvery converts every k'th synthetic request into a write so the
// program and writeback fault sites see traffic; the mixes are read-only by
// construction.
const faultWriteEvery = 8

// writeMixer turns every k'th request of a read-only generator into a
// same-extent write.
type writeMixer struct {
	inner workload.Generator
	k     int
	n     int
}

func (m *writeMixer) Name() string    { return m.inner.Name() }
func (m *writeMixer) FileSize() int64 { return m.inner.FileSize() }
func (m *writeMixer) Next() workload.Request {
	req := m.inner.Next()
	m.n++
	if m.n%m.k == 0 {
		req.Write = true
	}
	return req
}

// syncOnWrite makes every write a write-fsync cycle: the faulted replay
// verifies reads against the flash-content oracle, so dirty pages must not
// outlive the request that made them (and the writeback fault site sees
// traffic). The sync's time is part of the write's latency.
type syncOnWrite struct{ baseline.Engine }

func (e syncOnWrite) WriteAt(now sim.Time, data []byte, off int64) (sim.Time, error) {
	done, err := e.Engine.WriteAt(now, data, off)
	if err != nil {
		return done, err
	}
	return e.Sync(done)
}

// RunFaults executes the faults grid: mixes C and E (uniform) × FaultLevels
// × {Block I/O, Pipette}, every cell a private system with its own injector
// over the same fault seed. Each cell's measurement covers the surviving
// requests — Lost counts the requests that surfaced an uncorrectable media
// error — and its Faults ledger holds the stack's injection and recovery
// counters.
func RunFaults(s Scale, p *Pool) (map[string]map[string]map[string]*Result, error) {
	profiles := make([]fault.Profile, len(FaultLevels))
	for i, lv := range FaultLevels {
		prof, err := fault.ParseProfile(lv.Profile)
		if err != nil {
			return nil, fmt.Errorf("bench: fault level %s: %w", lv.Name, err)
		}
		profiles[i] = prof
	}
	all := workload.Mixes(s.FileSize(), 4096, workload.Uniform, 0xbead)
	mixes := []workload.SyntheticConfig{all[2], all[4]} // C (50% small) and E (all small)

	grid := make([]*Result, len(mixes)*len(FaultLevels)*len(faultEngineIdx))
	cells := make([]Cell, 0, len(grid))
	for mi, mixCfg := range mixes {
		for li, lv := range FaultLevels {
			for ki, ei := range faultEngineIdx {
				mixCfg, prof, ei := mixCfg, profiles[li], ei
				slot := &grid[(mi*len(FaultLevels)+li)*len(faultEngineIdx)+ki]
				cells = append(cells, Cell{
					Label: fmt.Sprintf("faults/%s/%s/%s", mixCfg.Name, lv.Name, EngineNames[ei]),
					Run: func() (*Result, error) {
						cfg := s.stackConfig(s.FileSize())
						cfg.FaultProfile = prof
						e, err := newEngine(ei, cfg)
						if err != nil {
							return nil, err
						}
						gen, err := workload.NewSynthetic(mixCfg)
						if err != nil {
							return nil, err
						}
						// Uncorrectable media errors are the experiment's subject:
						// a failed read, or a sub-page write whose read-modify-write
						// hit an unrecoverable page. Every surviving read is
						// oracle-verified — an injected fault may slow a read or
						// fail it, never silently change its bytes.
						res, err := Run(syncOnWrite{e}, &writeMixer{inner: gen, k: faultWriteEvery}, s.Requests,
							RunOpts{VerifyEvery: 1, TolerateMediaErrors: true})
						if err != nil {
							return nil, err
						}
						res.Workload = fmt.Sprintf("mix%s-%s", mixCfg.Name, lv.Name)
						res.Faults = e.Faults()
						*slot = res
						return res, nil
					},
				})
			}
		}
	}
	if err := p.RunCells(cells); err != nil {
		return nil, err
	}

	out := make(map[string]map[string]map[string]*Result)
	for mi, mixCfg := range mixes {
		out[mixCfg.Name] = make(map[string]map[string]*Result)
		for li, lv := range FaultLevels {
			out[mixCfg.Name][lv.Name] = make(map[string]*Result)
			for ki, ei := range faultEngineIdx {
				out[mixCfg.Name][lv.Name][EngineNames[ei]] =
					grid[(mi*len(FaultLevels)+li)*len(faultEngineIdx)+ki]
			}
		}
	}
	return out, nil
}

// writeFaults renders one table per mix: goodput and the recovery ledger at
// each fault level, block I/O vs Pipette.
func writeFaults(w io.Writer, s Scale, p *Pool) error {
	res, err := RunFaults(s, p)
	if err != nil {
		return err
	}
	mixNames := []string{"C", "E"}
	for _, mix := range mixNames {
		fmt.Fprintf(w, "=== Faults: goodput and recovery under injected faults, mix %s uniform (scale %s, %d requests, 1/%d writes) ===\n",
			mix, s.Name, s.Requests, faultWriteEvery)
		t := &metrics.Table{Header: []string{
			"Level", "Engine", "goodput kops/s", "failed", "injected",
			"ECC retry", "uncorr", "ring fb", "DMA fb", "prog retry", "wb retry",
		}}
		for _, lv := range FaultLevels {
			for _, ei := range faultEngineIdx {
				name := EngineNames[ei]
				fr := res[mix][lv.Name][name]
				r := fr.Faults
				t.AddRow(lv.Name, name,
					fmt.Sprintf("%.1f", fr.Snapshot.ThroughputOpsPerSec()/1000),
					fmt.Sprintf("%d", fr.Lost),
					fmt.Sprintf("%d", r.Injected),
					fmt.Sprintf("%d", r.ECCRetries),
					fmt.Sprintf("%d", r.Uncorrectable),
					fmt.Sprintf("%d", r.RingFallbacks),
					fmt.Sprintf("%d", r.DMAFallbacks),
					fmt.Sprintf("%d", r.ProgramRetries),
					fmt.Sprintf("%d", r.WritebackRetries),
				)
			}
		}
		fmt.Fprint(w, t.Render())
		fmt.Fprintln(w)
	}
	return nil
}
