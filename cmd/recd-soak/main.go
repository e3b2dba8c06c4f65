// Command recd-soak is the SLO-gated load generator for a running
// recd-serve: it drives N concurrent remote preprocessing sessions with
// a mixed profile set for a fixed duration, measures what a trainer
// would feel — per-batch wait latency (p50/p95/p99), aggregate batch
// throughput — reads back the server's cache and autoscaler accounting,
// and exits nonzero when a gate fails. CI runs it as a smoke soak
// (scripts/soak-smoke.sh); operators run it longer against a staging
// fleet.
//
// The workers take the three session profiles in turn, each exercising a
// serving path that matters:
//
//   - shared: ShareScans sessions — repeated scans hit the server's
//     ScanCache, so the soak proves cross-session sharing under load.
//   - pooled: plain queue-backed sessions with a small worker pool —
//     the non-shared decode path.
//   - think: a deliberately slow consumer (a 5 ms sleep per batch on a
//     small credit window) — starves the server's merge into consumer
//     stall so a server started with -autoscale must scale down, and
//     the credit-stall counters must move.
//
// The soak builds no table: like recd-train -connect, it reads the served
// table's spec and file plan from the first address's tablez handshake,
// once every shard answers statsz (it waits up to 30 s: recd-serve may
// still be landing its table).
// With a comma-separated -connect list the soak opens rendezvous-routed
// fleet sessions over every shard. With -obs-scrape pointed at the server's
// -obs-listen address the soak scrapes /metrics mid-run and at the end,
// and -check-metrics gates on the series a healthy run must move.
//
// Usage:
//
//	recd-serve -listen 127.0.0.1:7077 -autoscale -obs-listen 127.0.0.1:9077 &
//	recd-soak -connect 127.0.0.1:7077 -duration 10s \
//	  -obs-scrape http://127.0.0.1:9077 -check-metrics \
//	  -slo-p99 500ms -min-throughput 20
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
)

// profiles is the worker mix: worker w runs profiles[w%3].
var profiles = []string{"shared", "pooled", "think"}

const (
	// thinkTime is the think profile's sleep per batch.
	thinkTime = 5 * time.Millisecond
	// readyWait bounds the wait for every shard to answer statsz.
	readyWait = 30 * time.Second
)

func main() {
	var (
		connect     = flag.String("connect", "127.0.0.1:7077", "recd-serve address, or a comma-separated shard list for a fleet soak")
		concurrency = flag.Int("concurrency", 6, "concurrent session workers")
		duration    = flag.Duration("duration", 10*time.Second, "how long workers keep opening sessions")
		obsScrape   = flag.String("obs-scrape", "", "base URL of the server's -obs-listen sidecar; enables mid-run and final /metrics scrapes")
		sloP99      = flag.Duration("slo-p99", 0, "fail if p99 batch wait exceeds this; 0 disables the gate")
		minTput     = flag.Float64("min-throughput", 0, "fail if aggregate batches/sec falls below this; 0 disables the gate")
		checkSeries = flag.Bool("check-metrics", false, "fail unless the final /metrics scrape shows nonzero session, cache-hit, scale-event, and net-batch series (needs -obs-scrape and a server with -autoscale)")
		reconnect   = flag.Bool("reconnect", false, "resume sessions over lost connections, so in-flight streams survive a server restart; failures to open a session (a dead serving window) are then reported separately and do not fail the error gate")
		authToken   = flag.String("auth-token", "", "tenant token sent in every session handshake (match a line in recd-serve's -tenants file)")
	)
	flag.Parse()

	addrs := splitAddrs(*connect)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-connect needs at least one address"))
	}
	if *checkSeries && *obsScrape == "" {
		fatal(fmt.Errorf("-check-metrics needs -obs-scrape"))
	}

	ctx := context.Background()
	waitReady(ctx, addrs)

	// The served table's own spec and hour-0 file plan, so ShareScans
	// sessions share the server's cache with each other (and with any
	// trainer started from the same tablez).
	meta, err := dppnet.NewClient(addrs[0]).Tablez(ctx)
	if err != nil {
		fatal(fmt.Errorf("tablez from %s: %w", addrs[0], err))
	}
	files := meta.Files(0)
	if files == nil {
		fatal(fmt.Errorf("served table %q has no partition for hour 0", meta.Table))
	}

	// open(profile) dials one session. Fleet soaks route every profile
	// through the rendezvous multiplexer (its sessions are ShareScans by
	// construction); single-shard soaks exercise the distinct session
	// modes directly.
	var resume dppnet.ResumePolicy
	if *reconnect {
		resume = dppnet.ResumePolicy{MaxAttempts: 40, BaseDelay: 100 * time.Millisecond}
	}
	var fleet *dppshard.Fleet
	if len(addrs) > 1 {
		if fleet, err = dppshard.New(dppshard.Config{Addrs: addrs, Resume: resume, AuthToken: *authToken}); err != nil {
			fatal(err)
		}
	}
	client := dppnet.NewClient(addrs[0])
	client.Resume = resume
	client.AuthToken = *authToken
	open := func(profile string) (dpp.Stream, error) {
		spec := meta.Spec
		spec.Files = files
		switch profile {
		case "shared":
			spec.ShareScans = true
		case "pooled":
			spec.Readers, spec.Buffer = 2, 2
		case "think":
			// Few readers, minimal window: the slow consumer below turns
			// this into consumer stall the server's autoscaler must act on.
			spec.Readers, spec.Buffer = 4, 1
		}
		if fleet != nil {
			spec.ShareScans = true
			return fleet.Open(ctx, spec)
		}
		return client.Open(ctx, spec)
	}

	fmt.Printf("recd-soak: %d shard(s), %d workers, mix %v, %v\n", len(addrs), *concurrency, profiles, *duration)

	// Mid-run scrape: half-way through, prove the sidecar answers while
	// the server is under load (CI's liveness check on the obs path).
	var midSeries int
	var midErr error
	midDone := make(chan struct{})
	if *obsScrape != "" {
		time.AfterFunc(*duration/2, func() {
			defer close(midDone)
			var m map[string]float64
			if m, midErr = scrapeMetrics(*obsScrape); midErr == nil {
				midSeries = len(m)
			}
		})
	} else {
		close(midDone)
	}

	start := time.Now()
	deadline := start.Add(*duration)
	results := make([]result, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			profile := profiles[w%len(profiles)]
			thinkFor := time.Duration(0)
			if profile == "think" {
				thinkFor = thinkTime
			}
			r := &results[w]
			for time.Now().Before(deadline) {
				sess, err := open(profile)
				if err != nil {
					// Under -reconnect an open can land in the dead window of
					// a restarting server; that is expected churn, not a
					// stream failure, so it gets its own tally.
					if *reconnect {
						r.openFails++
					} else {
						r.errors++
					}
					time.Sleep(50 * time.Millisecond)
					continue
				}
				r.sessions++
				for {
					t0 := time.Now()
					_, err := sess.Next(ctx)
					if err == io.EOF {
						break
					}
					if err != nil {
						r.errors++
						break
					}
					r.lat = append(r.lat, time.Since(t0))
					r.batches++
					if thinkFor > 0 {
						time.Sleep(thinkFor)
					}
				}
				sess.Close()
				// Reconnect accounting straight off the session: how the
				// stream survived — parked-token resume or deterministic
				// offset replay on one server, a drain handoff to another
				// shard in a fleet (a single-server session rides a drain
				// out where it is, so it has none to count).
				switch s := sess.(type) {
				case *dppnet.RemoteSession:
					r.tokenResumes += s.TokenResumes()
					r.replays += s.Replays()
				case *dppshard.Session:
					r.drainHandoffs += s.DrainHandoffs()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-midDone

	// Merge and report.
	var all []time.Duration
	var totalSessions, totalBatches, totalErrors, totalOpenFails int64
	var totalTokenResumes, totalReplays, totalDrainHandoffs int64
	for i := range results {
		all = append(all, results[i].lat...)
		totalSessions += results[i].sessions
		totalBatches += results[i].batches
		totalErrors += results[i].errors
		totalOpenFails += results[i].openFails
		totalTokenResumes += results[i].tokenResumes
		totalReplays += results[i].replays
		totalDrainHandoffs += results[i].drainHandoffs
	}
	if totalBatches == 0 {
		fatal(fmt.Errorf("no batches streamed (%d errors)", totalErrors))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	tput := float64(totalBatches) / elapsed.Seconds()
	fmt.Printf("recd-soak: %d sessions, %d batches, %d errors in %v\n",
		totalSessions, totalBatches, totalErrors, elapsed.Round(time.Millisecond))
	if *reconnect {
		fmt.Printf("recd-soak: %d opens fell in a dead serving window (retried)\n", totalOpenFails)
		fmt.Printf("recd-soak: client resumes: %d by parked token, %d by offset replay; %d drain handoffs\n",
			totalTokenResumes, totalReplays, totalDrainHandoffs)
	}
	fmt.Printf("recd-soak: batch wait p50 %v p95 %v p99 %v max %v\n",
		pct(all, 50), pct(all, 95), pct(all, 99), all[len(all)-1].Round(10*time.Microsecond))
	fmt.Printf("recd-soak: throughput %.1f batches/s\n", tput)

	// Server-side accounting straight off the wire, per shard.
	for _, addr := range addrs {
		st, err := dppnet.NewClient(addr).ServiceStats(ctx)
		if err != nil {
			fmt.Printf("recd-soak: shard %s: statsz unavailable: %v\n", addr, err)
			continue
		}
		ratio := 0.0
		if st.Cache.Hits+st.Cache.Misses > 0 {
			ratio = 100 * float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
		}
		fmt.Printf("recd-soak: shard %s: %d sessions, %d batches; scan cache %.1f%% hits (%d/%d); scaled %d up / %d down\n",
			addr, st.SessionsOpened, st.BatchesServed, ratio, st.Cache.Hits, st.Cache.Misses,
			st.Scheduler.ScaleUps, st.Scheduler.ScaleDowns)
	}

	// Gates. Every failure prints, then one exit code at the end.
	failed := false
	gate := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("recd-soak: %s: %s\n", fmt.Sprintf(format, args...), verdict)
	}
	if *obsScrape != "" {
		gate(midErr == nil && midSeries > 0, "mid-run scrape (%d series, err %v)", midSeries, midErr)
	}
	if *sloP99 > 0 {
		gate(pct(all, 99) <= *sloP99, "SLO p99 %v <= %v", pct(all, 99), *sloP99)
	}
	if *minTput > 0 {
		gate(tput >= *minTput, "throughput %.1f >= %.1f batches/s", tput, *minTput)
	}
	gate(totalErrors == 0, "%d session errors", totalErrors)
	if *checkSeries {
		m, err := scrapeMetrics(*obsScrape)
		if err != nil {
			fatal(fmt.Errorf("final scrape: %w", err))
		}
		for _, series := range []string{
			"recd_sessions_opened_total",
			"recd_scancache_hits_total",
			"recd_scale_events_total",
			"recd_net_batches_sent_total",
			"recd_accesslog_events_total",
		} {
			gate(sumSeries(m, series) > 0, "metrics: %s > 0 (got %g)", series, sumSeries(m, series))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// result is one worker's tally. openFails only accumulates under
// -reconnect, where a failed open is expected restart churn; the
// resume split distinguishes parked-token resumes from deterministic
// offset replays, and drainHandoffs counts streams handed off to
// another shard by a draining server.
type result struct {
	lat                                  []time.Duration
	sessions, batches, errors, openFails int64
	tokenResumes, replays, drainHandoffs int64
}

// pct reads an exact percentile (nearest-rank) from sorted samples.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx].Round(10 * time.Microsecond)
}

// waitReady polls every shard's statsz handshake until it answers, for up
// to readyWait — recd-serve may still be landing its table when the soak
// starts.
func waitReady(ctx context.Context, addrs []string) {
	deadline := time.Now().Add(readyWait)
	for _, addr := range addrs {
		client := dppnet.NewClient(addr)
		for {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, err := client.ServiceStats(cctx)
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("shard %s not ready after %v: %w", addr, readyWait, err))
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
}

// scrapeMetrics GETs <base>/metrics and parses the exposition text into
// a map keyed by "name{labels}".
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("/metrics had no samples")
	}
	return out, nil
}

// sumSeries totals every sample of one metric family across label sets.
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// splitAddrs parses a comma-separated list, trimming whitespace.
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recd-soak:", err)
	os.Exit(1)
}
