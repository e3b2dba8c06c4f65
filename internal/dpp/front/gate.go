package front

import (
	"fmt"
	"sort"
	"sync"
)

// Config wires a Gate.
type Config struct {
	// Auth maps handshake tokens to tenants. Nil disables auth: every
	// connection is admitted as DefaultTenant (subject to its limits).
	Auth Authenticator
	// Limits configures per-tenant quotas and weights; tenants absent
	// from the map get DefaultLimits.
	Limits map[string]Limits
	// DefaultLimits applies to tenants with no Limits entry.
	DefaultLimits Limits
}

// Gate is the admission front door. One Gate serves a whole process —
// recd-serve shares it across every shard server, so tenant quotas span
// the fleet's shards rather than multiplying by their count.
type Gate struct {
	auth Authenticator
	cfg  Config

	mu       sync.Mutex
	draining bool
	tenants  map[string]*tenantState

	authFailures int64
	quotaRejects int64
	drainRejects int64
}

type tenantState struct {
	active   int
	admitted int64
	bytes    int64
}

// NewGate builds a Gate from cfg.
func NewGate(cfg Config) *Gate {
	return &Gate{auth: cfg.Auth, cfg: cfg, tenants: make(map[string]*tenantState)}
}

// limitsFor resolves a tenant's effective limits.
func (g *Gate) limitsFor(tenant string) Limits {
	if lim, ok := g.cfg.Limits[tenant]; ok {
		return lim
	}
	return g.cfg.DefaultLimits
}

// Admit runs the full admission path for one handshake: authenticate
// the token, refuse while draining, and charge the tenant's session
// quota. It either returns a held Lease or an error — and on error the
// caller has allocated nothing yet, which is the point: rejection must
// be free of session state.
func (g *Gate) Admit(token string) (*Lease, error) {
	tenant := DefaultTenant
	if g.auth != nil {
		t, err := g.auth.Authenticate(token)
		if err != nil {
			g.mu.Lock()
			g.authFailures++
			g.mu.Unlock()
			return nil, err
		}
		tenant = t
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		g.drainRejects++
		return nil, ErrDraining
	}
	lim := g.limitsFor(tenant)
	ts := g.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		g.tenants[tenant] = ts
	}
	if lim.MaxSessions > 0 && ts.active >= lim.MaxSessions {
		g.quotaRejects++
		return nil, fmt.Errorf("%w: tenant %q at its %d-session cap", ErrOverQuota, tenant, lim.MaxSessions)
	}
	if lim.MaxBytes > 0 && ts.bytes >= lim.MaxBytes {
		g.quotaRejects++
		return nil, fmt.Errorf("%w: tenant %q exhausted its %d-byte budget", ErrOverQuota, tenant, lim.MaxBytes)
	}
	ts.active++
	ts.admitted++
	return &Lease{g: g, Tenant: tenant}, nil
}

// Drain flips the gate into drain mode: every subsequent Admit — new
// sessions and resume claims alike — fails with ErrDraining. Idempotent.
func (g *Gate) Drain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Lease is one admitted session's hold on its tenant's quota. The
// serving path calls AddBytes as frames go out and Release when the
// session's network stream ends (a parked session keeps only its byte
// charge, not a concurrency slot).
type Lease struct {
	// Tenant the session was admitted as.
	Tenant string

	g        *Gate
	released bool
	mu       sync.Mutex
}

// AddBytes charges n streamed bytes to the lease's tenant. The charge
// outlives the lease: byte budgets are cumulative.
func (l *Lease) AddBytes(n int64) {
	if n <= 0 {
		return
	}
	l.g.mu.Lock()
	if ts := l.g.tenants[l.Tenant]; ts != nil {
		ts.bytes += n
	}
	l.g.mu.Unlock()
}

// Release frees the tenant's concurrency slot. Idempotent.
func (l *Lease) Release() {
	l.mu.Lock()
	done := l.released
	l.released = true
	l.mu.Unlock()
	if done {
		return
	}
	l.g.mu.Lock()
	if ts := l.g.tenants[l.Tenant]; ts != nil && ts.active > 0 {
		ts.active--
	}
	l.g.mu.Unlock()
}

// TenantStat is one tenant's admission accounting.
type TenantStat struct {
	Tenant   string
	Active   int   // sessions currently holding a lease
	Admitted int64 // sessions ever admitted
	Bytes    int64 // cumulative streamed bytes charged
}

// GateStats is a point-in-time snapshot of the gate.
type GateStats struct {
	Draining     bool
	AuthFailures int64
	QuotaRejects int64
	DrainRejects int64
	Tenants      []TenantStat // sorted by tenant name
}

// Stats snapshots the gate's accounting.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GateStats{
		Draining:     g.draining,
		AuthFailures: g.authFailures,
		QuotaRejects: g.quotaRejects,
		DrainRejects: g.drainRejects,
	}
	for name, ts := range g.tenants {
		st.Tenants = append(st.Tenants, TenantStat{
			Tenant: name, Active: ts.active, Admitted: ts.admitted, Bytes: ts.bytes,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// TenantStats returns one tenant's accounting (zero value if the
// tenant has never been admitted). Metric closures use it so a scrape
// reads a consistent snapshot per tenant.
func (g *Gate) TenantStats(tenant string) TenantStat {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts := g.tenants[tenant]
	if ts == nil {
		return TenantStat{Tenant: tenant}
	}
	return TenantStat{Tenant: tenant, Active: ts.active, Admitted: ts.admitted, Bytes: ts.bytes}
}

// KnownTenants lists the tenants named in the gate's configuration,
// sorted — the set obs registers per-tenant metric series for at
// startup (tenants outside the config share DefaultLimits and show up
// only in Stats).
func (g *Gate) KnownTenants() []string {
	names := make([]string, 0, len(g.cfg.Limits))
	for name := range g.cfg.Limits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
