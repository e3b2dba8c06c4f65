package main

import (
	"runtime/metrics"
	"time"

	"repro/internal/dpp"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the serving path sees, reported for every
// workload by the untraced run. error_rate is not here because it must
// stay 0: it is the result line's failed/attempted.
//
// The bounds are what this machine class can resolve, not what one
// would wish for: across ten runs with ten seeds on a shared 2-CPU box
// the timing and RSS metrics spread 3–15% (interference that lasts
// minutes moves whole runs), the byte metrics 1–2.5% (seed to seed
// only; with one seed they repeat exactly). See README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"cpu_us_per_row", "us/row", "lower", 0.25},
	{"first_batch_p50_ms", "ms", "lower", 0.25},
	{"batch_gap_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"stored_bytes_per_row", "B/row", "lower", 0.08},
	{"egress_bytes_per_row", "B/row", "lower", 0.08},
}

// perLayer is reported by the traced run; the prefix is the module.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "storage.get_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "storage.read_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "storage.read_ops_per_krow", Unit: "ops/krow", Better: "lower"},
	{Name: "dwrf.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "dwrf.decode_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "dwrf.decode_alloc_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "dwrf.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "dwrf.encode_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "dwrf.compression_ratio", Unit: "ratio", Better: "higher"},
	{Name: "reader.fill_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.fetch_sim_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.fetch_sim_share", Unit: "share", Better: "lower"},
	{Name: "reader.produce_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.produce_allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "reader.convert_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.process_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.convert_values_per_row", Unit: "values/row", Better: "lower"},
	{Name: "reader.process_ops_per_row", Unit: "ops/row", Better: "lower"},
	{Name: "reader.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "reader.serial_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "reader.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "tensor.dedup_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "tensor.dedup_factor", Unit: "ratio", Better: "higher"},
	{Name: "tensor.expand_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "etl.join_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "etl.cluster_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "landing.seal_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "landing.files_landed", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "dpp.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dpp.next_wait_share", Unit: "share", Better: "lower"},
	{Name: "dpp.worker_stall_share", Unit: "share", Better: "lower"},
	{Name: "dpp.consumer_stall_share", Unit: "share", Better: "lower"},
	{Name: "dpp.rows_decoded_per_row_served", Unit: "ratio", Better: "lower"},
	{Name: "dpp.scancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dpp.scancache_evictions_per_pass", Unit: "count", Better: "lower"},
	{Name: "dpp.scancache_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "dpp.follow_lag_files_max", Unit: "count", Better: "lower"},
	{Name: "dpp.session_errors", Unit: "count", Better: "lower"},
	{Name: "dppnet.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dppnet.hop_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "dppnet.wire_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "dppnet.credit_stall_share", Unit: "share", Better: "lower"},
	{Name: "dppnet.reconnects", Unit: "count", Better: "lower"},
	{Name: "dppshard.next_wait_share", Unit: "share", Better: "lower"},
	{Name: "dppshard.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "dppshard.reroutes", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_row", Unit: "allocs/row", Better: "lower"},
	{Name: "proc.alloc_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// endToEndMetrics turns one measured window into the user-visible
// numbers. On live_tail the consumer's "first batch" is per landed
// chunk — due time to the batch that delivers it — because its one
// session is open before the clock starts.
func endToEndMetrics(m *meas, setup time.Duration) map[string]float64 {
	first := summarize(m.First)
	if m.Lags != nil {
		first = summarize(m.Lags)
	}
	rates, cpus := make([]float64, len(m.Slices)), make([]float64, len(m.Slices))
	for i, s := range m.Slices {
		rates[i] = float64(s.Rows) / s.Wall.Seconds()
		cpus[i] = float64(s.CPU) / float64(time.Microsecond) / float64(s.Rows)
	}
	return map[string]float64{
		"setup_s":              setup.Seconds(),
		"rows_per_s":           median(rates),
		"cpu_us_per_row":       median(cpus),
		"first_batch_p50_ms":   first.P50,
		"batch_gap_p95_ms":     summarize(m.Gaps).P95,
		"peak_rss_mb":          float64(m.PeakRSS) / (1 << 20),
		"stored_bytes_per_row": float64(m.StoredBytes) / float64(m.StoredRows),
		"egress_bytes_per_row": float64(m.EgressBytes) / float64(m.EgressRows),
	}
}

// counters is what the harness reads from the product and the runtime
// at the boundaries of the traced window; per-layer ratios are deltas
// between two of these, so they are measured where the work happens.
type counters struct {
	cache                      dpp.ScanCacheStats
	workerStall, consumerStall time.Duration
	sessionErrors              int64
	creditStall                time.Duration
	reconnects                 int64
	wire                       int64
	allocObjects, allocBytes   uint64
	gcCPU, totalCPU            float64
}

func readCounters(r *rig) counters {
	var c counters
	for _, svc := range r.services {
		st := svc.Stats()
		c.cache.Hits += st.Cache.Hits
		c.cache.Misses += st.Cache.Misses
		c.cache.Evictions += st.Cache.Evictions
		c.cache.Bytes += st.Cache.Bytes
		c.workerStall += st.Scheduler.WorkerStall
		c.consumerStall += st.Scheduler.ConsumerStall
		c.sessionErrors += st.SessionErrors
	}
	for _, srv := range r.servers {
		st := srv.Stats()
		c.creditStall += st.CreditStallTime
		c.reconnects += st.ResumedSessions + st.ReplayedSessions
	}
	if r.wire != nil {
		c.wire = r.wire.Load()
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.allocObjects, c.allocBytes = samples[0].Value.Uint64(), samples[1].Value.Uint64()
	c.gcCPU, c.totalCPU = samples[2].Value.Float64(), samples[3].Value.Float64()
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the serving-side per-layer numbers of the traced
// window from the harness's spans and the counter deltas around it.
func layerMetrics(m *meas, r *rig, fx *fixture, spans []Span, c0, c1 counters) map[string]float64 {
	tot := totalsByName(spans)
	// Stall and wait shares are per consumer, so 1 means "always".
	rows, wall := float64(m.Rows), float64(m.Wall)*float64(r.consumers)
	nextWait := float64(tot[r.layer+".next"].Total) / wall
	hits, misses := float64(c1.cache.Hits-c0.cache.Hits), float64(c1.cache.Misses-c0.cache.Misses)
	out := map[string]float64{
		"dpp.worker_stall_share":           float64(c1.workerStall-c0.workerStall) / wall,
		"dpp.consumer_stall_share":         float64(c1.consumerStall-c0.consumerStall) / wall,
		"dpp.rows_decoded_per_row_served":  ratio(float64(m.RowsDecoded), float64(m.EgressRows)),
		"dpp.scancache_hit_ratio":          ratio(hits, hits+misses),
		"dpp.scancache_evictions_per_pass": ratio(float64(c1.cache.Evictions-c0.cache.Evictions), float64(m.Passes)),
		"dpp.scancache_bytes_per_row":      float64(c1.cache.Bytes) / float64(fx.ref.Rows),
		"dpp.follow_lag_files_max":         float64(m.FollowLag),
		"dpp.session_errors":               float64(c1.sessionErrors - c0.sessionErrors),
		"dppnet.wire_bytes_per_row":        float64(c1.wire-c0.wire) / rows,
		"dppnet.credit_stall_share":        float64(c1.creditStall-c0.creditStall) / wall,
		"dppnet.reconnects":                float64(c1.reconnects - c0.reconnects),
		"dppshard.shard_skew":              r.shardSkew,
		"dppshard.reroutes":                float64(r.reroutes),
		"proc.allocs_per_row":              float64(c1.allocObjects-c0.allocObjects) / rows,
		"proc.alloc_bytes_per_row":         float64(c1.allocBytes-c0.allocBytes) / rows,
		"proc.gc_cpu_share":                ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU),
		"landing.files_landed":             float64(m.FilesLanded),
		"loadgen.late_p99_ms":              summarize(m.Late).P99,
		"tail_lag_p50_ms":                  summarize(m.Lags).P50,
		"tail_lag_p90_ms":                  summarize(m.Lags).P90,
	}
	switch r.layer {
	case "dpp":
		out["dpp.open_p50_ms"] = summarize(durationsOf(spans, "dpp.open")).P50
		out["dpp.next_wait_share"] = nextWait
	case "dppnet":
		out["dppnet.open_p50_ms"] = summarize(durationsOf(spans, "dppnet.open")).P50
		out["dpp.next_wait_share"] = nextWait
	case "dppshard":
		// Fleet.Open dials and handshakes every shard: a network open.
		out["dppnet.open_p50_ms"] = summarize(durationsOf(spans, "dppshard.open")).P50
		out["dppshard.next_wait_share"] = nextWait
	}
	if m.FilesLanded > 0 {
		seal := tot["landing.land_joined"].Total + tot["landing.flush"].Total
		out["landing.seal_ns_per_row"] = float64(seal) / (float64(tot["landing.flush"].Count) * chunkRows)
	}
	return out
}
