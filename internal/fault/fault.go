// Package fault is the deterministic fault-injection registry of the
// simulated stack. A profile names sites in the I/O path ("nand.read",
// "hmb.ring", ...) and attaches a rule to each: an injection probability
// (or a raw-bit-error-rate multiplier resolved against the media), an
// optional LBA window, and an optional injection budget. An Injector built
// from a profile is consulted by the instrumented layers; every decision is
// drawn from per-site splitmix64 streams seeded by the fault seed, so a run
// is byte-reproducible at any worker count and two engines over identical
// stacks see identical fault sequences.
//
// The nil *Injector is the Nop: every method is nil-safe, Check is a single
// pointer test costing zero allocations, and no RNG state exists at all —
// an empty profile therefore leaves the simulation's RNG draws, timings,
// and output byte-identical to a build without fault injection. This
// mirrors the telemetry package's Nop-tracer design.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"pipette/internal/sim"
)

// Site identifies one injection point in the stack.
type Site int

// The registered fault sites.
const (
	// SiteNANDRead: raw bit errors in a sensed page. Severity selects the
	// ECC outcome (retry depth or uncorrectable).
	SiteNANDRead Site = iota
	// SiteNANDProgram: a program operation fails its verify step and the
	// firmware re-programs the page at a fresh physical address.
	SiteNANDProgram
	// SiteNVMeDMA: a fine-read DMA payload corrupts in flight; the host
	// detects the checksum mismatch and falls back to block I/O.
	SiteNVMeDMA
	// SiteHMBRing: an Info-Area ring record corrupts between host append
	// and device consume; the device detects it and the request falls back.
	SiteHMBRing
	// SiteVFSWriteback: a writeback command reports a transient failure
	// and the flusher re-issues it.
	SiteVFSWriteback

	numSites
)

var siteNames = [numSites]string{
	SiteNANDRead:     "nand.read",
	SiteNANDProgram:  "nand.program",
	SiteNVMeDMA:      "nvme.dma",
	SiteHMBRing:      "hmb.ring",
	SiteVFSWriteback: "vfs.writeback",
}

// SiteByName resolves a site name.
func SiteByName(name string) (Site, bool) {
	for s, n := range siteNames {
		if n == name {
			return Site(s), true
		}
	}
	return 0, false
}

// Rule is the injection policy of one site.
type Rule struct {
	// Prob is the per-operation injection probability.
	Prob float64
	// RBERMult scales the media's raw bit error rate; the owning layer
	// resolves it into an additional per-operation probability via
	// ResolveRBER (probability += RBERMult * RBER * bitsPerOp).
	RBERMult float64
	// LBAMin/LBAMax window the site to an address range. LBAMax == 0
	// means unbounded above.
	LBAMin, LBAMax uint64
	// MaxCount caps total injections at this site. 0 means unlimited.
	MaxCount uint64
}

// Profile maps sites to rules. The zero Profile is empty and injects
// nothing.
type Profile struct {
	rules [numSites]Rule
	set   [numSites]bool
}

// Empty reports whether no site has a rule.
func (p Profile) Empty() bool {
	for _, s := range p.set {
		if s {
			return false
		}
	}
	return true
}

// Set installs a rule for a site.
func (p *Profile) Set(site Site, r Rule) {
	p.rules[site] = r
	p.set[site] = true
}

// Rule returns a site's rule and whether one is set.
func (p Profile) Rule(site Site) (Rule, bool) { return p.rules[site], p.set[site] }

// ParseProfile parses the -fault-profile syntax: comma-separated site
// rules of the form
//
//	site:spec[@lo-hi][#count]
//
// where spec is either a probability ("hmb.ring:0.01") or an RBER
// multiplier ("nand.read:rber*20", resolved against the media's datasheet
// rate by the owning layer), @lo-hi windows the rule to an LBA range, and
// #count caps the number of injections. The empty string parses to the
// empty profile.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, ":")
		if !ok {
			return Profile{}, fmt.Errorf("fault: rule %q missing ':'", part)
		}
		site, ok := SiteByName(strings.TrimSpace(name))
		if !ok {
			return Profile{}, fmt.Errorf("fault: unknown site %q (known: %s)",
				name, strings.Join(siteNames[:], ", "))
		}
		var r Rule
		if i := strings.IndexByte(spec, '#'); i >= 0 {
			n, err := strconv.ParseUint(spec[i+1:], 10, 64)
			if err != nil || n == 0 {
				return Profile{}, fmt.Errorf("fault: bad count in %q", part)
			}
			r.MaxCount = n
			spec = spec[:i]
		}
		if i := strings.IndexByte(spec, '@'); i >= 0 {
			lo, hi, ok := strings.Cut(spec[i+1:], "-")
			if !ok {
				return Profile{}, fmt.Errorf("fault: bad LBA range in %q (want @lo-hi)", part)
			}
			var err error
			if r.LBAMin, err = strconv.ParseUint(lo, 10, 64); err != nil {
				return Profile{}, fmt.Errorf("fault: bad LBA range in %q", part)
			}
			if r.LBAMax, err = strconv.ParseUint(hi, 10, 64); err != nil {
				return Profile{}, fmt.Errorf("fault: bad LBA range in %q", part)
			}
			if r.LBAMax < r.LBAMin {
				return Profile{}, fmt.Errorf("fault: empty LBA range in %q", part)
			}
			spec = spec[:i]
		}
		if mult, isRBER := strings.CutPrefix(spec, "rber*"); isRBER {
			m, err := strconv.ParseFloat(mult, 64)
			if err != nil || m <= 0 {
				return Profile{}, fmt.Errorf("fault: bad RBER multiplier in %q", part)
			}
			r.RBERMult = m
		} else {
			prob, err := strconv.ParseFloat(spec, 64)
			if err != nil || prob < 0 || prob > 1 {
				return Profile{}, fmt.Errorf("fault: bad probability in %q (want [0,1] or rber*N)", part)
			}
			r.Prob = prob
		}
		p.Set(site, r)
	}
	return p, nil
}

// Outcome is one Check decision. Sev is only meaningful on a hit: a
// uniform [0,1) draw the site's owner maps onto its failure spectrum
// (e.g. which ECC retry step recovers the page, or which bit flips).
type Outcome struct {
	Hit bool
	Sev float64
}

// siteState is one site's live injection state.
type siteState struct {
	rule     Rule
	prob     float64 // effective per-op probability (Prob + resolved RBER)
	active   bool
	injected uint64
	rng      *sim.RNG
}

// Injector draws injection decisions for a stack. One injector is shared
// by every layer of a stack, so the per-site streams interleave in
// simulation order and the whole run replays from the seed. The nil
// Injector is the allocation-free Nop.
type Injector struct {
	sites [numSites]siteState
}

// siteSalt decorrelates the per-site RNG streams from one seed.
func siteSalt(s Site) uint64 { return sim.Mix64(0xfa17_0000 + uint64(s)*0x9e3779b97f4a7c15) }

// NewInjector builds an injector over the profile, or nil (the Nop) when
// the profile is empty.
func (p Profile) NewInjector(seed uint64) *Injector {
	if p.Empty() {
		return nil
	}
	inj := &Injector{}
	for s := Site(0); s < numSites; s++ {
		st := &inj.sites[s]
		st.rule = p.rules[s]
		st.prob = st.rule.Prob
		st.active = p.set[s] && (st.prob > 0 || st.rule.RBERMult > 0)
		if st.active {
			st.rng = sim.NewRNG(seed ^ siteSalt(s))
		}
	}
	return inj
}

// Enabled reports whether any injection can happen. Layers use it to gate
// validation work (checksumming DMA payloads) that only matters under
// injection.
func (i *Injector) Enabled() bool { return i != nil }

// ResolveRBER folds a media raw bit error rate into a site's effective
// probability: rules written as rber*mult become
// min(1, Prob + mult*rber*bitsPerOp). The owning layer calls this once at
// wiring time with its datasheet RBER and the bits moved per operation.
func (i *Injector) ResolveRBER(site Site, rber float64, bitsPerOp int) {
	if i == nil {
		return
	}
	st := &i.sites[site]
	if !st.active {
		return
	}
	p := st.rule.Prob + st.rule.RBERMult*rber*float64(bitsPerOp)
	if p > 1 {
		p = 1
	}
	st.prob = p
	st.active = p > 0
}

// Check draws one injection decision for site at address addr. Inactive
// sites (and the nil injector) return a miss without consuming any RNG
// state. On a hit a second draw supplies the severity.
func (i *Injector) Check(site Site, addr uint64) Outcome {
	if i == nil {
		return Outcome{}
	}
	st := &i.sites[site]
	if !st.active {
		return Outcome{}
	}
	if st.rule.MaxCount != 0 && st.injected >= st.rule.MaxCount {
		return Outcome{}
	}
	if addr < st.rule.LBAMin || (st.rule.LBAMax != 0 && addr > st.rule.LBAMax) {
		return Outcome{}
	}
	if st.rng.Float64() >= st.prob {
		return Outcome{}
	}
	st.injected++
	return Outcome{Hit: true, Sev: st.rng.Float64()}
}

// Injected reports injections drawn at one site.
func (i *Injector) Injected(site Site) uint64 {
	if i == nil {
		return 0
	}
	return i.sites[site].injected
}

// TotalInjected reports injections drawn across all sites.
func (i *Injector) TotalInjected() uint64 {
	if i == nil {
		return 0
	}
	var n uint64
	for s := range i.sites {
		n += i.sites[s].injected
	}
	return n
}

// Sum32 is FNV-1a over data — the CRC stand-in both ends of the fine-read
// DMA protocol compute to validate payload integrity.
func Sum32(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// Report aggregates a stack's reliability counters: what was injected and
// how each layer recovered. Assembled by the engine facades for the faults
// experiment and the public System report.
type Report struct {
	Injected uint64 // fault decisions drawn across all sites

	ECCRetries    uint64 // NAND read-retry steps charged by the ECC ladder
	Uncorrectable uint64 // reads that exhausted the retry budget

	RingCorruptions uint64 // Info-Area records the device rejected
	DMACorruptions  uint64 // fine-read payloads corrupted in flight
	RingFallbacks   uint64 // fine reads re-served via block I/O (ring)
	DMAFallbacks    uint64 // fine reads re-served via block I/O (DMA)

	ProgramRetries   uint64 // NAND programs re-issued after a verify fail
	WritebackRetries uint64 // writeback commands the flusher re-issued
}
