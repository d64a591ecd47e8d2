package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzip-compressed protocol buffer
// (github.com/google/pprof, proto/profile.proto). The standard library has
// no reader for it, so this file decodes the few fields attribution needs:
// each sample's location ids and values, each location's (inlined) lines,
// each function's name, the string table and the sample types.

// sample is one profile record: its stack as function names, leaf first
// with inlined frames expanded innermost first, how many times the
// profiler caught that stack, and the CPU time those catches stand for.
type sample struct {
	stack []string
	count int64
	ns    int64
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fProfilePeriod     = 12

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2

	fValueTypeUnit = 2
)

// pb walks protobuf wire format.
type pb struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// next reads a field key and, for length-delimited fields, the payload;
// other payloads are consumed, varints returned in v.
func (p *pb) next() (field int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

// uints appends a repeated integer field's value, packed or not.
func uints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	q := pb{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile reads a CPU profile as written by pprof.StartCPUProfile.
func decodeProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string index
		strs      []string
		typeUnits []uint64 // unit string index per sample value
		period    uint64
	)
	p := pb{raw}
	for len(p.b) > 0 {
		field, v, payload, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case fProfileSampleType:
			q := pb{payload}
			var unit uint64
			for len(q.b) > 0 {
				f, x, _, err := q.next()
				if err != nil {
					return nil, err
				}
				if f == fValueTypeUnit {
					unit = x
				}
			}
			typeUnits = append(typeUnits, unit)
		case fProfileSample:
			var s rawSample
			q := pb{payload}
			for len(q.b) > 0 {
				f, x, pl, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fSampleLocation:
					s.locs, err = uints(s.locs, x, pl)
				case fSampleValue:
					s.values, err = uints(s.values, x, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			q := pb{payload}
			for len(q.b) > 0 {
				f, x, pl, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fLocationID:
					id = x
				case fLocationLine:
					l := pb{pl}
					for len(l.b) > 0 {
						lf, lx, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == fLineFunction {
							fns = append(fns, lx)
						}
					}
				}
			}
			locLines[id] = fns
		case fProfileFunction:
			var id, name uint64
			q := pb{payload}
			for len(q.b) > 0 {
				f, x, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fFunctionID:
					id = x
				case fFunctionName:
					name = x
				}
			}
			funcName[id] = name
		case fProfileStrings:
			strs = append(strs, string(payload))
		case fProfilePeriod:
			period = v
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Prefer the value measured in nanoseconds; fall back to the sample
	// count times the sampling period.
	nsIdx := -1
	for i, u := range typeUnits {
		if str(u) == "nanoseconds" {
			nsIdx = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var count, ns int64
		if len(s.values) > 0 {
			count = int64(s.values[0])
			ns = int64(s.values[0] * period)
		}
		if nsIdx >= 0 && nsIdx < len(s.values) {
			ns = int64(s.values[nsIdx])
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		out = append(out, sample{stack: stack, count: count, ns: ns})
	}
	return out, nil
}

// layerOf names the layer a function's CPU time is charged to, or "" when
// the function is a helper whose time belongs to its caller.
//
//   - A pipette/internal/<layer> package is that layer. The Recorder's
//     methods are the tracer, so telemetry counts only the always-on
//     instruments (stage account, tail recorder, heatmap, counters).
//   - Helper packages charge to their caller: sim outside Engine and
//     EventQueue (clock, RNG, Zipf), bitset, metrics, workload, fault, and
//     any package not in hostLayers.
//   - The pipette facade and the benchmark's own main package are the
//     harness around the layers, so they count as bench.
func layerOf(fn string) string {
	const internal = "pipette/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		switch pkg {
		case "telemetry":
			if strings.HasPrefix(rest, "telemetry.(*Recorder).") {
				return "tracer"
			}
		case "sim":
			if !strings.HasPrefix(rest, "sim.(*Engine).") && !strings.HasPrefix(rest, "sim.(*EventQueue).") {
				return ""
			}
		}
		for _, l := range hostLayers {
			if l == pkg {
				return l
			}
		}
		return ""
	}
	if strings.HasPrefix(fn, "pipette.") || strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attribute charges each sample to the innermost frame that names a layer;
// stacks with none (the runtime's background GC, the scheduler) charge to
// gc. It returns CPU nanoseconds per layer and the number of samples.
func attribute(samples []sample) (map[string]int64, int64) {
	out := make(map[string]int64, len(hostLayers))
	var count int64
	for _, s := range samples {
		count += s.count
		layer := "gc"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out, count
}
