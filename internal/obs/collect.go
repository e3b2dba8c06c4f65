package obs

import (
	"runtime"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/front"
	"repro/internal/dpp/landing"
)

// This file is the wiring layer between the serving stack's stats
// snapshots and the registry: one Register* call per instrumented
// component, called once at process startup. Metric names are part of
// the operational contract and pinned by the golden-format test — add
// freely, rename deliberately.

// RegisterProcess registers Go runtime series: goroutine count, heap
// occupancy, GC cycles, and process uptime.
func RegisterProcess(reg *Registry) {
	start := time.Now()
	reg.Gauge("recd_go_goroutines", "Number of live goroutines.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.Gauge("recd_go_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	reg.Counter("recd_go_gc_runs_total", "Completed GC cycles.", nil,
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.NumGC)
		})
	reg.Gauge("recd_process_uptime_seconds", "Seconds since the process registered its metrics.", nil,
		func() float64 { return time.Since(start).Seconds() })
}

// RegisterService registers a dpp.Service's session, batch, ScanCache,
// and autoscaler series. labels distinguishes services sharing a
// registry (typically {"shard": "<i>"}).
func RegisterService(reg *Registry, labels Labels, svc *dpp.Service) {
	reg.Gauge("recd_sessions_active", "Sessions currently open.", labels,
		func() float64 { return float64(svc.Stats().ActiveSessions) })
	reg.Counter("recd_sessions_opened_total", "Sessions ever opened.", labels,
		func() float64 { return float64(svc.Stats().SessionsOpened) })
	reg.Counter("recd_session_errors_total", "Sessions that ended with a reader or scan error.", labels,
		func() float64 { return float64(svc.Stats().SessionErrors) })
	reg.Counter("recd_batches_served_total", "Batches handed out across all sessions.", labels,
		func() float64 { return float64(svc.Stats().BatchesServed) })

	reg.Counter("recd_scancache_hits_total", "ScanCache gets served from a resident or in-flight entry.", labels,
		func() float64 { return float64(svc.Stats().Cache.Hits) })
	reg.Counter("recd_scancache_misses_total", "ScanCache gets that computed.", labels,
		func() float64 { return float64(svc.Stats().Cache.Misses) })
	reg.Counter("recd_scancache_evictions_total", "ScanCache entries dropped to respect the byte budget.", labels,
		func() float64 { return float64(svc.Stats().Cache.Evictions) })
	reg.Counter("recd_scancache_ghost_hits_total", "ScanCache misses on an entry evicted for budget and asked for again: the working set cycles and does not fit.", labels,
		func() float64 { return float64(svc.Stats().Cache.GhostHits) })
	reg.Counter("recd_scancache_invalidations_total", "ScanCache entries dropped because their file was deleted (retention coherence).", labels,
		func() float64 { return float64(svc.Stats().Cache.Invalidations) })
	reg.Gauge("recd_scancache_entries", "ScanCache resident entries.", labels,
		func() float64 { return float64(svc.Stats().Cache.Entries) })
	reg.Gauge("recd_scancache_bytes", "ScanCache resident bytes.", labels,
		func() float64 { return float64(svc.Stats().Cache.Bytes) })

	reg.Counter("recd_scale_events_total", "AutoScaler pool resizes by direction.",
		withLabel(labels, "direction", "up"),
		func() float64 { return float64(svc.Stats().Scheduler.ScaleUps) })
	reg.Counter("recd_scale_events_total", "AutoScaler pool resizes by direction.",
		withLabel(labels, "direction", "down"),
		func() float64 { return float64(svc.Stats().Scheduler.ScaleDowns) })
	reg.Counter("recd_stall_seconds_total", "Session starvation by kind: worker (merge starved for fill workers) or consumer (output buffer full).",
		withLabel(labels, "kind", "worker"),
		func() float64 { return svc.Stats().Scheduler.WorkerStall.Seconds() })
	reg.Counter("recd_stall_seconds_total", "Session starvation by kind: worker (merge starved for fill workers) or consumer (output buffer full).",
		withLabel(labels, "kind", "consumer"),
		func() float64 { return svc.Stats().Scheduler.ConsumerStall.Seconds() })

	reg.Gauge("recd_follow_sessions", "Follow (live-tail) sessions currently open.", labels,
		func() float64 { return float64(svc.Stats().Follow.Sessions) })
	reg.Gauge("recd_follow_lag_files", "Files observed from the catalog but not yet merged into open Follow streams.", labels,
		func() float64 { return float64(svc.Stats().Follow.LagFiles) })
	reg.Counter("recd_follow_extended_files_total", "Files extended into Follow scan plans since the service started.", labels,
		func() float64 { return float64(svc.Stats().Follow.ExtendedFiles) })
}

// RegisterLanding registers a landing Writer's ingestion series from a
// stats snapshot closure: sealed files, landed rows, and the flush mix.
func RegisterLanding(reg *Registry, labels Labels, stats func() landing.WriterStats) {
	reg.Counter("recd_landed_files_total", "Files sealed and published by the landing writer.", labels,
		func() float64 { return float64(stats().FilesLanded) })
	reg.Counter("recd_landed_rows_total", "Rows inside sealed landing files.", labels,
		func() float64 { return float64(stats().RowsLanded) })
	reg.Counter("recd_landing_flushes_total", "Landing seal events by trigger: timed (FlushInterval) or size (FlushRows, hour advance, explicit Flush/Close).",
		withLabel(labels, "trigger", "timed"),
		func() float64 { return float64(stats().TimedFlushes) })
	reg.Counter("recd_landing_flushes_total", "Landing seal events by trigger: timed (FlushInterval) or size (FlushRows, hour advance, explicit Flush/Close).",
		withLabel(labels, "trigger", "size"),
		func() float64 {
			st := stats()
			return float64(st.Flushes - st.TimedFlushes)
		})
	reg.Gauge("recd_landing_buffered_rows", "Unsealed rows buffered in the landing writer.", labels,
		func() float64 { return float64(stats().BufferedRows) })
}

// RegisterNetServer registers a dppnet.Server's transport series:
// connections, wire sessions, shipped frames and bytes, and
// credit-window stalls.
func RegisterNetServer(reg *Registry, labels Labels, srv *dppnet.Server) {
	reg.Counter("recd_net_conns_accepted_total", "Accepted TCP connections.", labels,
		func() float64 { return float64(srv.Stats().ConnsAccepted) })
	reg.Gauge("recd_net_conns_active", "Connections currently being handled.", labels,
		func() float64 { return float64(srv.Stats().ConnsActive) })
	reg.Counter("recd_net_sessions_served_total", "Wire sessions admitted.", labels,
		func() float64 { return float64(srv.Stats().SessionsServed) })
	reg.Counter("recd_net_batches_sent_total", "Batch pieces shipped on unit streams.", labels,
		func() float64 { return float64(srv.Stats().BatchesSent) })
	reg.Counter("recd_net_units_sent_total", "Head and closing pieces shipped on unit streams (one closing piece per file served).", labels,
		func() float64 { return float64(srv.Stats().UnitsSent) })
	reg.Counter("recd_net_bytes_sent_total", "Payload bytes shipped in batch and unit frames.", labels,
		func() float64 { return float64(srv.Stats().BytesSent) })
	reg.Counter("recd_net_credit_stalls_total", "Credit-window exhaustion episodes (consumer owed credits).", labels,
		func() float64 { return float64(srv.Stats().CreditStalls) })
	reg.Counter("recd_net_credit_stall_seconds_total", "Time spent blocked on credit-window exhaustion.", labels,
		func() float64 { return srv.Stats().CreditStallTime.Seconds() })
	reg.Counter("recd_resumed_sessions_total", "Wire sessions that resumed by claiming a parked token (retained frames resent, nothing re-decoded).", labels,
		func() float64 { return float64(srv.Stats().ResumedSessions) })
	reg.Counter("recd_replayed_sessions_total", "Wire sessions that continued by deterministic offset replay (no parked state).", labels,
		func() float64 { return float64(srv.Stats().ReplayedSessions) })
	reg.Counter("recd_replayed_batches_total", "Frames re-pulled and discarded to reach a resume offset (cold replay).", labels,
		func() float64 { return float64(srv.Stats().ReplayedBatches) })
	reg.Counter("recd_parked_sessions_total", "Dropped resumable sessions parked for later resume.", labels,
		func() float64 { return float64(srv.Stats().ParkedSessions) })
	reg.Counter("recd_resume_expired_total", "Parked sessions evicted by TTL or capacity before resume.", labels,
		func() float64 { return float64(srv.Stats().ResumeExpired) })
	reg.Counter("recd_drain_notices_total", "Drain frames handed to in-flight sessions during graceful drain.", labels,
		func() float64 { return float64(srv.Stats().DrainNotices) })
	reg.Gauge("recd_net_draining", "1 while the server is in drain mode.", labels,
		func() float64 {
			if srv.Stats().Draining {
				return 1
			}
			return 0
		})
}

// RegisterGate registers a front.Gate's multi-tenant admission series:
// per-tenant session/byte usage for every tenant the gate knows at
// registration (tenant sets are static, from the -tenants file), plus
// the gate-wide rejection counters.
func RegisterGate(reg *Registry, labels Labels, g *front.Gate) {
	for _, tenant := range g.KnownTenants() {
		t := tenant
		tl := withLabel(labels, "tenant", t)
		reg.Gauge("recd_tenant_sessions_active", "Sessions currently admitted per tenant.", tl,
			func() float64 { return float64(g.TenantStats(t).Active) })
		reg.Counter("recd_tenant_sessions_admitted_total", "Sessions ever admitted per tenant.", tl,
			func() float64 { return float64(g.TenantStats(t).Admitted) })
		reg.Counter("recd_tenant_bytes_total", "Payload bytes streamed per tenant.", tl,
			func() float64 { return float64(g.TenantStats(t).Bytes) })
	}
	reg.Counter("recd_gate_rejects_total", "Handshakes refused at the front door, by reason.",
		withLabel(labels, "reason", "auth"),
		func() float64 { return float64(g.Stats().AuthFailures) })
	reg.Counter("recd_gate_rejects_total", "Handshakes refused at the front door, by reason.",
		withLabel(labels, "reason", "quota"),
		func() float64 { return float64(g.Stats().QuotaRejects) })
	reg.Counter("recd_gate_rejects_total", "Handshakes refused at the front door, by reason.",
		withLabel(labels, "reason", "draining"),
		func() float64 { return float64(g.Stats().DrainRejects) })
}

// RegisterGovernor registers the fair-share worker governor's series:
// the total budget, rebalance count, and per-tenant granted workers for
// every tenant with a configured weight.
func RegisterGovernor(reg *Registry, labels Labels, gov *front.Governor, tenants []string) {
	reg.Gauge("recd_governor_worker_budget", "Total reader-worker budget arbitrated across tenants.", labels,
		func() float64 { return float64(gov.Budget()) })
	reg.Counter("recd_governor_rebalances_total", "Fair-share rebalance passes.", labels,
		func() float64 { return float64(gov.Stats().Rebalances) })
	for _, tenant := range tenants {
		t := tenant
		reg.Gauge("recd_governor_granted_workers", "Reader workers currently granted per tenant.",
			withLabel(labels, "tenant", t),
			func() float64 { return float64(gov.Granted(t)) })
	}
}

// RegisterAccessLog registers the access log's lifetime event counts.
func RegisterAccessLog(reg *Registry, log *AccessLog) {
	for _, kind := range []string{"open", "close", "error"} {
		k := kind
		reg.Counter("recd_accesslog_events_total", "Access-log events recorded by kind.",
			Labels{"kind": k},
			func() float64 {
				st := log.Stats()
				switch k {
				case "open":
					return float64(st.Opens)
				case "close":
					return float64(st.Closes)
				default:
					return float64(st.Errors)
				}
			})
	}
}

// SessionHook adapts an AccessLog to dppnet's OnSession callback:
// assign the result to Server.OnSession before Serve.
func SessionHook(log *AccessLog) func(dppnet.SessionEvent) {
	return func(ev dppnet.SessionEvent) {
		log.Record(AccessEvent{SessionEvent: ev})
	}
}

// withLabel copies base and adds one more label.
func withLabel(base Labels, k, v string) Labels {
	out := make(Labels, len(base)+1)
	for bk, bv := range base {
		out[bk] = bv
	}
	out[k] = v
	return out
}
