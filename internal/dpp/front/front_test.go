package front

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dpp"
)

// TestParseTenants pins the tenants-file grammar: whitespace fields,
// comments, optional limit columns, MiB scaling, multi-token tenants,
// and every malformed-line rejection.
func TestParseTenants(t *testing.T) {
	input := `
# fleet tenants
team-a tok-a 1 4 64
team-b tok-b 2          # weight only
team-b tok-b2           # second token, limits already set
solo   tok-solo
`
	tokens, limits, err := ParseTenants(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	wantTokens := StaticTokens{
		"tok-a": "team-a", "tok-b": "team-b", "tok-b2": "team-b", "tok-solo": "solo",
	}
	if len(tokens) != len(wantTokens) {
		t.Fatalf("parsed %d tokens, want %d", len(tokens), len(wantTokens))
	}
	for tok, tenant := range wantTokens {
		if tokens[tok] != tenant {
			t.Errorf("token %q -> %q, want %q", tok, tokens[tok], tenant)
		}
	}
	if lim := limits["team-a"]; lim.Weight != 1 || lim.MaxSessions != 4 || lim.MaxBytes != 64<<20 {
		t.Errorf("team-a limits %+v, want weight 1, 4 sessions, 64 MiB", lim)
	}
	if lim := limits["team-b"]; lim.Weight != 2 || lim.MaxSessions != 0 || lim.MaxBytes != 0 {
		t.Errorf("team-b limits %+v, want weight 2 and unlimited otherwise", lim)
	}
	if lim := limits["solo"]; lim != (Limits{}) {
		t.Errorf("solo limits %+v, want all-zero (unlimited)", lim)
	}

	for name, bad := range map[string]string{
		"one field":       "lonely\n",
		"too many fields": "t tok 1 2 3 4\n",
		"bad weight":      "t tok nope\n",
		"negative cap":    "t tok 1 -2\n",
		"duplicate token": "a tok\nb tok\n",
		"empty file":      "# only comments\n",
	} {
		if _, _, err := ParseTenants(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: ParseTenants accepted %q", name, bad)
		}
	}
}

// TestStaticTokensAuthenticate: unknown and empty tokens are refused
// with ErrUnauthorized even if an empty key sneaks into the table.
func TestStaticTokensAuthenticate(t *testing.T) {
	auth := StaticTokens{"tok-a": "team-a", "": "sneaky"}
	if tenant, err := auth.Authenticate("tok-a"); err != nil || tenant != "team-a" {
		t.Fatalf("Authenticate(tok-a) = %q, %v", tenant, err)
	}
	for _, tok := range []string{"", "wrong"} {
		if _, err := auth.Authenticate(tok); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("Authenticate(%q) = %v, want ErrUnauthorized", tok, err)
		}
	}
}

// TestGateAdmission covers the whole admission path over one gate: auth
// refusal, session-cap and byte-budget quota refusals, lease release
// idempotence, and the per-tenant accounting each decision leaves
// behind.
func TestGateAdmission(t *testing.T) {
	g := NewGate(Config{
		Auth: StaticTokens{"tok-a": "team-a", "tok-b": "team-b"},
		Limits: map[string]Limits{
			"team-a": {MaxSessions: 2},
			"team-b": {MaxBytes: 100},
		},
	})

	if _, err := g.Admit("wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad token admitted: %v", err)
	}
	if st := g.Stats(); st.AuthFailures != 1 || len(st.Tenants) != 0 {
		t.Fatalf("stats after auth refusal %+v, want 1 auth failure and no tenant state", st)
	}

	l1, err := g.Admit("tok-a")
	if err != nil || l1.Tenant != "team-a" {
		t.Fatalf("Admit(tok-a) = %+v, %v", l1, err)
	}
	l2, err := g.Admit("tok-a")
	if err != nil {
		t.Fatalf("second admit under a 2-session cap: %v", err)
	}
	if _, err := g.Admit("tok-a"); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("third admit = %v, want ErrOverQuota at the session cap", err)
	}
	l2.Release()
	l2.Release() // idempotent: releasing twice must not free two slots
	if ts := g.TenantStats("team-a"); ts.Active != 1 || ts.Admitted != 2 {
		t.Fatalf("team-a after release %+v, want 1 active / 2 admitted", ts)
	}
	if l3, err := g.Admit("tok-a"); err != nil {
		t.Fatalf("admit after release: %v", err)
	} else {
		l3.Release()
	}
	l1.Release()

	// Byte budgets are cumulative: the charge survives the lease.
	lb, err := g.Admit("tok-b")
	if err != nil {
		t.Fatal(err)
	}
	lb.AddBytes(150)
	lb.Release()
	if _, err := g.Admit("tok-b"); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("admit over the byte budget = %v, want ErrOverQuota", err)
	}
	if st := g.Stats(); st.QuotaRejects != 2 {
		t.Fatalf("stats %+v, want 2 quota rejects (session cap + byte budget)", st)
	}
}

// TestGateNoAuthDefaultsTenant: without an Authenticator every
// handshake lands on DefaultTenant, still subject to its limits.
func TestGateNoAuthDefaultsTenant(t *testing.T) {
	g := NewGate(Config{Limits: map[string]Limits{DefaultTenant: {MaxSessions: 1}}})
	l, err := g.Admit("ignored-token")
	if err != nil || l.Tenant != DefaultTenant {
		t.Fatalf("Admit = %+v, %v, want the default tenant", l, err)
	}
	if _, err := g.Admit(""); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("second admit = %v, want ErrOverQuota under the default tenant's limits", err)
	}
	l.Release()
}

// TestGateDrain: after Drain every admit — valid token or not — fails
// with ErrDraining (whose text carries "draining" for the fleet's
// route-around match), and the refusals are counted.
func TestGateDrain(t *testing.T) {
	g := NewGate(Config{Auth: StaticTokens{"tok-a": "team-a"}})
	g.Drain()
	g.Drain() // idempotent
	if !g.Stats().Draining {
		t.Fatal("Stats().Draining false after Drain")
	}
	_, err := g.Admit("tok-a")
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining = %v, want ErrDraining", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("drain refusal %q must contain \"draining\" for clients to match", err)
	}
	if st := g.Stats(); !st.Draining || st.DrainRejects != 1 {
		t.Fatalf("stats %+v, want draining with 1 drain reject", st)
	}
}

// fakeTarget is a ScaleTarget whose pool is a plain integer — the
// governor's Resize actuations land here.
type fakeTarget struct {
	name    string
	workers int
}

func (f *fakeTarget) SchedulerStats() dpp.SchedulerStats {
	return dpp.SchedulerStats{Workers: f.workers}
}

func (f *fakeTarget) Resize(n int) int {
	f.workers = n
	return n
}

// TestGovernorFairShare is the fair-share convergence pin: two starved
// tenants with weights 1:2 bidding far past the budget must converge to
// a 1:2 split of the whole budget within ±1, deterministically, and
// independent of arrival or bid order.
func TestGovernorFairShare(t *testing.T) {
	const budget = 9
	for name, order := range map[string][2]string{
		"a-first": {"team-a", "team-b"},
		"b-first": {"team-b", "team-a"},
	} {
		t.Run(name, func(t *testing.T) {
			g := NewGovernor(GovernorConfig{
				Budget:  budget,
				Weights: map[string]int{"team-a": 1, "team-b": 2},
			})
			targets := map[string][]*fakeTarget{}
			for _, tenant := range order {
				for i := 0; i < 2; i++ {
					ft := &fakeTarget{name: fmt.Sprintf("%s-%d", tenant, i), workers: 1}
					targets[tenant] = append(targets[tenant], ft)
					g.Register(tenant, ft)
				}
			}
			// Both tenants saturate: every session bids for the whole budget.
			for _, tenant := range order {
				for _, ft := range targets[tenant] {
					g.Bid(tenant, ft, budget)
				}
			}
			grant := func(tenant string) int {
				total := 0
				for _, ft := range targets[tenant] {
					total += ft.workers
				}
				if got := g.Granted(tenant); got != total {
					t.Fatalf("%s: Granted() %d disagrees with actuated pools %d", tenant, got, total)
				}
				return total
			}
			a, b := grant("team-a"), grant("team-b")
			if a+b != budget {
				t.Fatalf("split %d+%d spends %d, want the whole budget %d", a, b, a+b, budget)
			}
			// Ideal 1:2 split of 9 is 3:6; the contract allows ±1.
			if a < 2 || a > 4 || b < 5 || b > 7 {
				t.Fatalf("split a=%d b=%d, want 3:6 within ±1", a, b)
			}
			if b < 2*a-1 {
				t.Fatalf("split a=%d b=%d does not respect the 1:2 weighting", a, b)
			}

			// Departure redistributes: with team-b gone, team-a's sessions
			// absorb the budget up to their bids.
			for _, ft := range targets["team-b"] {
				g.Unregister(ft)
			}
			if got := grant("team-a"); got != budget {
				t.Fatalf("after team-b departed, team-a holds %d workers, want the full budget %d", got, budget)
			}
			if st := g.Stats(); st.Rebalances < 1 || st.Budget != budget {
				t.Fatalf("governor stats %+v", st)
			}
		})
	}
}

// TestGovernorDeterministicSplit: the same membership and bids always
// produce the same per-session grants (the water-filling is seeded by
// fixed orderings, not map iteration).
func TestGovernorDeterministicSplit(t *testing.T) {
	split := func() []int {
		g := NewGovernor(GovernorConfig{Budget: 7, Weights: map[string]int{"x": 1, "y": 3}})
		var fts []*fakeTarget
		for i := 0; i < 4; i++ {
			ft := &fakeTarget{workers: 1}
			fts = append(fts, ft)
			tenant := "x"
			if i%2 == 1 {
				tenant = "y"
			}
			g.Register(tenant, ft)
			g.Bid(tenant, ft, 3+i)
		}
		out := make([]int, len(fts))
		for i, ft := range fts {
			out[i] = ft.workers
		}
		return out
	}
	first := split()
	for run := 0; run < 20; run++ {
		if got := split(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("run %d split %v, first run %v — arbitration is nondeterministic", run, got, first)
		}
	}
}

// TestGovernorUnlimitedBudget: budget <= 0 disables arbitration — every
// bid passes through to Resize unchanged.
func TestGovernorUnlimitedBudget(t *testing.T) {
	g := NewGovernor(GovernorConfig{})
	ft := &fakeTarget{workers: 1}
	g.Register("t", ft)
	if got := g.Bid("t", ft, 17); got != 17 || ft.workers != 17 {
		t.Fatalf("bid under a disabled budget granted %d (pool %d), want 17", got, ft.workers)
	}
}

// TestGovernorMetBidsLeaveBudgetIdle: the governor never grants above a
// session's own bid — surplus budget stays idle rather than inflating
// pools past what their controllers asked for.
func TestGovernorMetBidsLeaveBudgetIdle(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 100})
	ft := &fakeTarget{workers: 1}
	g.Register("t", ft)
	if got := g.Bid("t", ft, 3); got != 3 || ft.workers != 3 {
		t.Fatalf("granted %d (pool %d), want exactly the 3-worker bid", got, ft.workers)
	}
}

// TestGovernorPassThroughUnregistered: a bid from a target the governor
// never registered is a plain resize, not a silent drop.
func TestGovernorPassThroughUnregistered(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 4})
	ft := &fakeTarget{workers: 1}
	if got := g.Bid("ghost", ft, 2); got != 2 || ft.workers != 2 {
		t.Fatalf("unregistered bid granted %d (pool %d), want 2", got, ft.workers)
	}
}
