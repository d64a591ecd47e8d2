package workload

import (
	"fmt"

	"pipette/internal/sim"
)

// KVOp is one key-value operation kind.
type KVOp int

// Operation kinds of the YCSB core workloads.
const (
	OpRead KVOp = iota
	OpUpdate
	OpInsert
	OpScan
	OpRMW // read-modify-write
)

// String names the operation.
func (op KVOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// KVRequest is one generated key-value operation. Key is a dense record
// number — the store driver renders it into a key string and a value. For
// OpScan, ScanLen is the number of consecutive keys to return.
type KVRequest struct {
	Op      KVOp
	Key     uint64
	ScanLen int
}

// YCSBConfig parameterizes a YCSB-style key-value workload: an operation
// mix in percent, a request distribution over the keyspace, and the growing
// record count inserts produce. The paper's small-value regime (values far
// below a page) is where the fine-grained read path wins; value sizing is
// the store driver's business, keyed off KVRequest.Key.
type YCSBConfig struct {
	Records uint64 // preloaded keyspace; inserts grow it

	ReadPct   float64
	UpdatePct float64
	InsertPct float64
	ScanPct   float64
	RMWPct    float64

	Dist       Dist    // request distribution over the keyspace
	Latest     bool    // skew reads toward recently inserted keys (workload D)
	Theta      float64 // zipfian exponent
	MaxScanLen int     // scan length upper bound (workload E)
	Seed       uint64
}

// StandardYCSB returns one of the six core workloads over a keyspace of
// records keys:
//
//	A  50% read / 50% update, zipfian
//	B  95% read /  5% update, zipfian
//	C  100% read, zipfian
//	D  95% read /  5% insert, latest distribution
//	E  95% scan /  5% insert, zipfian, scans up to 100 keys
//	F  50% read / 50% read-modify-write, zipfian
func StandardYCSB(name string, records uint64, seed uint64) (YCSBConfig, error) {
	cfg := YCSBConfig{
		Records:    records,
		Dist:       Zipfian,
		Theta:      0.8,
		MaxScanLen: 100,
		Seed:       seed,
	}
	switch name {
	case "A":
		cfg.ReadPct, cfg.UpdatePct = 50, 50
	case "B":
		cfg.ReadPct, cfg.UpdatePct = 95, 5
	case "C":
		cfg.ReadPct = 100
	case "D":
		cfg.ReadPct, cfg.InsertPct = 95, 5
		cfg.Latest = true
	case "E":
		cfg.ScanPct, cfg.InsertPct = 95, 5
	case "F":
		cfg.ReadPct, cfg.RMWPct = 50, 50
	default:
		return YCSBConfig{}, fmt.Errorf("workload: unknown YCSB workload %q (A-F)", name)
	}
	return cfg, nil
}

// YCSB generates the configured operation stream. Deterministic given the
// seed; inserts extend the keyspace with dense keys Records, Records+1, ...
type YCSB struct {
	cfg    YCSBConfig
	rng    *sim.RNG
	choose *KeyChooser
	latest *sim.Zipf // rank 0 = newest key (workload D)
	total  uint64    // current record count
	cdf    [5]float64
	ops    [5]KVOp
}

// NewYCSB builds the generator.
func NewYCSB(cfg YCSBConfig) (*YCSB, error) {
	if cfg.Records == 0 {
		return nil, fmt.Errorf("workload: YCSB needs at least one record")
	}
	sum := cfg.ReadPct + cfg.UpdatePct + cfg.InsertPct + cfg.ScanPct + cfg.RMWPct
	if sum < 99.999 || sum > 100.001 {
		return nil, fmt.Errorf("workload: YCSB mix sums to %g%%, want 100", sum)
	}
	if cfg.ScanPct > 0 && cfg.MaxScanLen < 1 {
		return nil, fmt.Errorf("workload: scans need MaxScanLen >= 1")
	}
	y := &YCSB{cfg: cfg, rng: sim.NewRNG(cfg.Seed), total: cfg.Records}
	choose, err := NewKeyChooser(sim.NewRNG(cfg.Seed^0x9c5b), cfg.Dist, cfg.Records, cfg.Theta)
	if err != nil {
		return nil, err
	}
	y.choose = choose
	if cfg.Latest {
		z, err := sim.NewZipf(sim.NewRNG(cfg.Seed^0x1a7e57), cfg.Records, cfg.Theta)
		if err != nil {
			return nil, err
		}
		y.latest = z
	}
	y.ops = [5]KVOp{OpRead, OpUpdate, OpInsert, OpScan, OpRMW}
	pcts := [5]float64{cfg.ReadPct, cfg.UpdatePct, cfg.InsertPct, cfg.ScanPct, cfg.RMWPct}
	var cum float64
	for i, p := range pcts {
		cum += p
		y.cdf[i] = cum
	}
	return y, nil
}

// Records reports the current record count (grows with inserts).
func (y *YCSB) Records() uint64 { return y.total }

// key draws one existing record number from the configured distribution.
func (y *YCSB) key() uint64 {
	if y.latest != nil {
		// Workload D reads what was just inserted: rank 0 is the newest key.
		return y.total - 1 - y.latest.Next()
	}
	return y.choose.Next()
}

// Next draws one operation.
func (y *YCSB) Next() KVRequest {
	p := y.rng.Float64() * 100
	op := y.ops[len(y.ops)-1]
	for i, c := range y.cdf {
		if p < c {
			op = y.ops[i]
			break
		}
	}
	switch op {
	case OpInsert:
		k := y.total
		y.total++
		return KVRequest{Op: OpInsert, Key: k}
	case OpScan:
		return KVRequest{
			Op:      OpScan,
			Key:     y.key(),
			ScanLen: 1 + int(y.rng.Uint64n(uint64(y.cfg.MaxScanLen))),
		}
	default:
		return KVRequest{Op: op, Key: y.key()}
	}
}
