package workload

import (
	"errors"
	"fmt"

	"pipette/internal/sim"
)

// TenantConfig shapes one tenant's share of a multi-tenant stream.
type TenantConfig struct {
	// Weight is the tenant's share of arrivals, relative to the sum of
	// all weights (<= 0 is rejected).
	Weight float64
	// Theta is the tenant's Zipfian skew over its private keyspace;
	// 0 selects a uniform chooser.
	Theta float64
	// ReadFraction of the tenant's requests are reads; the rest are
	// updates of existing records.
	ReadFraction float64
}

// TenantRequest is one draw from the multi-tenant stream: which tenant,
// whether it writes, and which record (an index into the tenant's private
// [0, records) keyspace — namespacing into a flat key is the caller's
// job, via kv.NamespaceKey).
type TenantRequest struct {
	Tenant int
	Write  bool
	Record uint64
}

// MultiTenant interleaves per-tenant request streams: a weighted tenant
// draw, then the chosen tenant's private key chooser with its own skew.
// Each tenant's chooser consumes a private RNG, so one tenant's skew
// setting never perturbs another tenant's key sequence — adding a tenant
// or changing a theta leaves the other tenants' streams byte-identical.
type MultiTenant struct {
	tenants  []TenantConfig
	cum      []float64 // cumulative weight, normalized to [0,1]
	rng      *sim.RNG  // tenant + read/write draws
	choosers []*KeyChooser
}

// NewMultiTenant builds a stream over len(tenants) private keyspaces of
// `records` records each.
func NewMultiTenant(records uint64, tenants []TenantConfig, seed uint64) (*MultiTenant, error) {
	if records == 0 {
		return nil, errors.New("workload: multi-tenant needs records > 0")
	}
	if len(tenants) == 0 {
		return nil, errors.New("workload: multi-tenant needs at least one tenant")
	}
	var total float64
	for i, tc := range tenants {
		if tc.Weight <= 0 {
			return nil, fmt.Errorf("workload: tenant %d weight %v must be > 0", i, tc.Weight)
		}
		if tc.ReadFraction < 0 || tc.ReadFraction > 1 {
			return nil, fmt.Errorf("workload: tenant %d read fraction %v outside [0,1]", i, tc.ReadFraction)
		}
		total += tc.Weight
	}
	m := &MultiTenant{
		tenants: append([]TenantConfig(nil), tenants...),
		cum:     make([]float64, len(tenants)),
		rng:     sim.NewRNG(seed ^ 0x7e4a_11d7),
	}
	var run float64
	for i, tc := range tenants {
		run += tc.Weight / total
		m.cum[i] = run
	}
	m.cum[len(m.cum)-1] = 1 // absorb rounding
	for i, tc := range tenants {
		dist, theta := Uniform, 0.0
		if tc.Theta > 0 {
			dist, theta = Zipfian, tc.Theta
		}
		kc, err := NewKeyChooser(sim.NewRNG(sim.Mix64(seed^uint64(i)*0x9e3779b97f4a7c15)), dist, records, theta)
		if err != nil {
			return nil, fmt.Errorf("workload: tenant %d: %w", i, err)
		}
		m.choosers = append(m.choosers, kc)
	}
	return m, nil
}

// Next draws the next request.
func (m *MultiTenant) Next() TenantRequest {
	u := m.rng.Float64()
	t := 0
	for t < len(m.cum)-1 && u >= m.cum[t] {
		t++
	}
	write := m.rng.Float64() >= m.tenants[t].ReadFraction
	return TenantRequest{Tenant: t, Write: write, Record: m.choosers[t].Next()}
}
