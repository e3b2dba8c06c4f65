package dpp

// WorkerArbiter arbitrates a service-wide (or process-wide) worker
// budget across sessions. front.Governor is the implementation; the
// interface lives here so dpp never imports the front door it sits
// under.
//
// With Config.Arbiter set alongside Config.AutoScale, every batch
// session — ShareScans or not — is Registered under its Spec.Tenant when
// it opens and Unregistered when it releases, and its AutoScaler's Resize
// calls are rerouted into Bid: the controller still observes the
// session's own starvation and proposes a size, but the arbiter — which
// sees every tenant's demand — decides the grant and actuates
// Session.Resize itself.
type WorkerArbiter interface {
	// Register enrolls a live session's scale target under its tenant.
	// The arbiter may immediately Resize it (and others) to fit the
	// budget.
	Register(tenant string, t ScaleTarget)
	// Unregister drops a departed target and redistributes its share.
	Unregister(t ScaleTarget)
	// Bid proposes a worker count for t and returns the granted count.
	// The arbiter actuates Resize on every session whose grant changed,
	// including t itself.
	Bid(tenant string, t ScaleTarget, n int) int
}

// arbitratedTarget is the ScaleTarget a session's AutoScaler drives
// when the service has a WorkerArbiter: observation passes through to
// the session, actuation becomes a bid.
type arbitratedTarget struct {
	arb    WorkerArbiter
	tenant string
	sess   *Session
}

func (t *arbitratedTarget) SchedulerStats() SchedulerStats { return t.sess.SchedulerStats() }

func (t *arbitratedTarget) Resize(n int) int { return t.arb.Bid(t.tenant, t.sess, n) }
