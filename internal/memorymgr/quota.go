package memorymgr

import (
	"fmt"
	"sort"

	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// This file implements per-tenant memory-quota accounting for the service
// layer: every admitted job reserves its simulated cluster memory footprint
// (per-worker budget × workers) against its tenant's quota before it may
// queue, and releases the reservation when the job leaves the system. The
// allocators already cap what a single run can keep resident per node; the
// quota pool caps what all of a tenant's queued and running jobs may claim
// together, so one tenant cannot drive the AMM of the shared cluster past
// its share no matter how many jobs it submits.

// QuotaError reports a reservation that would exceed the tenant's quota.
// The service maps it to 429 with a Retry-After hint.
type QuotaError struct {
	// Tenant is the over-quota tenant.
	Tenant string
	// Want is the rejected reservation; Reserved and Quota describe the
	// tenant's state at rejection time.
	Want, Reserved, Quota sim.Bytes
}

// Error implements the error interface.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("memorymgr: tenant %q quota exceeded: want %d bytes, %d of %d reserved",
		e.Tenant, e.Want, e.Reserved, e.Quota)
}

// TenantQuotas tracks memory reservations per tenant against a uniform
// per-tenant quota; all accounting is in sim.Bytes of simulated cluster
// memory, never host memory. It takes no lock: code that shares it across
// goroutines orders every call itself, as the service does with the server
// lock that also guards the recorder the quota's probe writes into.
type TenantQuotas struct {
	quota    sim.Bytes
	reserved map[string]sim.Bytes
	peak     map[string]sim.Bytes

	// probe receives per-tenant reservation/headroom time series; seq is
	// the logical clock stamping them (see SetProbe).
	probe obs.Probe
	seq   int64
}

// NewTenantQuotas returns a pool granting every tenant the same quota;
// perTenant <= 0 panics (a zero quota would reject every job and is always
// a configuration error).
func NewTenantQuotas(perTenant sim.Bytes) *TenantQuotas {
	if perTenant <= 0 {
		panic(fmt.Sprintf("memorymgr: non-positive tenant quota %d", perTenant))
	}
	return &TenantQuotas{
		quota:    perTenant,
		reserved: make(map[string]sim.Bytes),
		peak:     make(map[string]sim.Bytes),
	}
}

// SetProbe attaches a telemetry probe: every successful Reserve and every
// Release emits the tenant's reserved bytes and remaining headroom as
// gauge series (quota.reserved_bytes.<tenant>, quota.headroom_bytes.<tenant>).
// The quota pool spans jobs, so it has no single virtual clock; events are
// stamped with a logical reservation-sequence time instead (one virtual
// second per accounting event), which is deterministic for a fixed
// submission sequence. nil detaches the probe.
func (q *TenantQuotas) SetProbe(p obs.Probe) {
	q.probe = p
}

// emit samples the tenant's quota series.
func (q *TenantQuotas) emit(tenant string) {
	if q.probe == nil {
		return
	}
	q.seq++
	t := sim.VTime(q.seq)
	q.probe.SeriesSet(obs.NodeMaster, "quota.reserved_bytes."+tenant, t, float64(q.reserved[tenant]))
	q.probe.SeriesSet(obs.NodeMaster, "quota.headroom_bytes."+tenant, t, float64(q.quota-q.reserved[tenant]))
}

// Reserve claims bytes against the tenant's quota, returning a *QuotaError
// when the claim would exceed it. A successful Reserve must be paired with
// exactly one Release when the job completes, fails or is canceled.
func (q *TenantQuotas) Reserve(tenant string, bytes sim.Bytes) error {
	if bytes < 0 {
		return fmt.Errorf("memorymgr: negative reservation %d for tenant %q", bytes, tenant)
	}
	if q.reserved[tenant]+bytes > q.quota {
		return &QuotaError{Tenant: tenant, Want: bytes, Reserved: q.reserved[tenant], Quota: q.quota}
	}
	q.reserved[tenant] += bytes
	if q.reserved[tenant] > q.peak[tenant] {
		q.peak[tenant] = q.reserved[tenant]
	}
	q.emit(tenant)
	return nil
}

// Release returns a reservation to the tenant's quota. Releasing more than
// is reserved clamps to zero instead of going negative, so a double release
// cannot mint quota.
func (q *TenantQuotas) Release(tenant string, bytes sim.Bytes) {
	if bytes > q.reserved[tenant] {
		bytes = q.reserved[tenant]
	}
	q.reserved[tenant] -= bytes
	if q.reserved[tenant] == 0 {
		delete(q.reserved, tenant)
	}
	q.emit(tenant)
}

// Reserved returns the tenant's current reservation.
func (q *TenantQuotas) Reserved(tenant string) sim.Bytes {
	return q.reserved[tenant]
}

// Peak returns the tenant's reservation high-water mark.
func (q *TenantQuotas) Peak(tenant string) sim.Bytes {
	return q.peak[tenant]
}

// Tenants returns every tenant that ever held a reservation, sorted, so
// snapshot emission iterates in a deterministic order.
func (q *TenantQuotas) Tenants() []string {
	out := make([]string, 0, len(q.peak))
	for t := range q.peak {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
