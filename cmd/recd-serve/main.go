// Command recd-serve runs the preprocessing service as its own process —
// the paper's DPP deployment shape — serving dpp sessions to trainers
// over the dppnet TCP protocol. It lands the same deterministic
// synthetic table recd-train builds (same -sessions/-batch/-seed ⇒ same
// files, same spec fingerprints), opens a dpp.Service over it with both
// cache tiers configured, and listens until SIGINT/SIGTERM.
//
// A typical two-process run:
//
//	recd-serve -listen 127.0.0.1:7077 &
//	recd-train -connect 127.0.0.1:7077 -epochs 4
//
// Because the ScanCache lives here, sharing now spans processes: a
// second trainer (same flags) — or the first trainer's later epochs —
// streams batches this server decoded for someone else.
//
// -listen also takes a comma-separated address list, which runs one
// preprocessing shard per address in this process: each shard is its own
// dpp.Service (own ScanCache, own admission cap) over the shared landed
// table. A trainer pointing -connect at the same list routes each file
// to exactly one shard by rendezvous hashing, so the fleet's decoded
// cache capacity is the sum of the shards' — the paper's scale-out axis
// for preprocessing. For a real multi-host fleet, start one recd-serve
// per host instead; the trainer cannot tell the difference.
//
// With -follow the server also hosts the online-ingestion path: a
// landing writer keeps appending freshly generated hour partitions to
// the served table (sealed DWRF files, atomically published), so a
// trainer running `recd-train -connect ... -follow` tails a genuinely
// growing table. -flush-interval paces the landings and bounds the
// writer's seal latency; -retain-hours chases the tail with retention,
// dropping the oldest partitions and invalidating both cache tiers.
//
// With -autoscale the service also closes the paper's reader-scaling
// loop: each session's worker pool is resized between 1 and
// -max-readers-per-session from its observed starvation — a trainer that
// stops returning dppnet credits starves its session's merge and the
// pool shrinks; a trainer outrunning the readers grows it. Scaling never
// changes the bytes a trainer receives, only their pace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/front"
	"repro/internal/dpp/landing"
	"repro/internal/obs"
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:7077", "TCP listen address, or a comma-separated list to run one preprocessing shard per address")
		sessions      = flag.Int("sessions", 200, "training sessions in the landed table (match recd-train)")
		batch         = flag.Int("batch", 128, "batch size the derived spec uses (match recd-train)")
		seed          = flag.Int64("seed", 11, "random seed (match recd-train)")
		maxSessions   = flag.Int("max-sessions", 0, "concurrent session cap per shard; 0 is unlimited")
		scanCacheMB   = flag.Int64("scan-cache-mb", 256, "decoded-batch ScanCache budget in MiB per shard; 0 or negative disables (ShareScans sessions rejected)")
		rawCacheMB    = flag.Int64("store-cache-mb", 256, "raw-byte CachingBackend budget in MiB; 0 disables")
		autoscale     = flag.Bool("autoscale", false, "autoscale each session's reader-worker pool from its observed credit/worker starvation")
		maxReaders    = flag.Int("max-readers-per-session", dpp.DefaultMaxReaders, "autoscaler upper bound on a session's worker pool (with -autoscale)")
		obsListen     = flag.String("obs-listen", "", "observability sidecar HTTP address (/metrics, /debug/pprof, /healthz, /statsz, /accesslog); empty disables")
		accessLogN    = flag.Int("access-log-events", 4096, "access-log ring capacity (with -obs-listen)")
		resumeTTL     = flag.Duration("resume-ttl", 45*time.Second, "how long a dropped resumable session stays parked awaiting reconnect")
		resumeMax     = flag.Int("resume-sessions", 64, "parked resumable sessions kept per shard; negative disables parking (offset replay still works)")
		tenantsFile   = flag.String("tenants", "", "tenant token file enabling the multi-tenant front door (lines: tenant token [weight [max-sessions [max-mb]]]); empty serves a single anonymous tenant")
		workerBudget  = flag.Int("worker-budget", 0, "total reader-worker budget arbitrated across tenants by weighted fair share (needs -autoscale); 0 leaves sessions unarbitrated")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain (SIGTERM or POST /drainz) waits for active streams to hand off before forcing shutdown")
		follow        = flag.Bool("follow", false, "host a live landing writer: keep appending freshly generated hour partitions to the served table, so tailing (Follow) sessions see it grow")
		flushInterval = flag.Duration("flush-interval", 500*time.Millisecond, "with -follow: the landing cadence, and the writer's latency-bound seal interval")
		retainHours   = flag.Int("retain-hours", 0, "with -follow: keep only the newest N hour partitions, dropping older ones and invalidating both cache tiers; 0 keeps everything (a drop under a lagging tailer fails that session's reads — keep N above the consumer's lag)")
	)
	flag.Parse()

	addrs := strings.Split(*listen, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			fatal(fmt.Errorf("empty address in -listen %q", *listen))
		}
	}

	tt, err := core.BuildTrainTable(core.TrainTableConfig{
		Sessions: *sessions, Batch: *batch, Seed: *seed,
		StoreCacheBytes: *rawCacheMB << 20,
	})
	if err != nil {
		fatal(err)
	}

	// Flag semantics match -store-cache-mb: 0 turns the cache off. The
	// dpp.Config convention differs (0 picks the default budget), so map
	// explicitly.
	scanBudget := int64(-1)
	if *scanCacheMB > 0 {
		scanBudget = *scanCacheMB << 20
	}
	cfg := dpp.Config{
		Backend:        tt.Backend,
		Catalog:        tt.Catalog,
		MaxSessions:    *maxSessions,
		ScanCacheBytes: scanBudget,
	}
	if *autoscale {
		cfg.AutoScale = &dpp.AutoScalerConfig{MaxReaders: *maxReaders}
	}

	// Multi-tenant front door: one Gate shared by every shard server, so
	// a tenant's session and byte quotas span the whole process, not one
	// shard. Without -tenants every handshake admits as the anonymous
	// default tenant and no quota applies.
	var gate *front.Gate
	var tenantLimits map[string]front.Limits
	if *tenantsFile != "" {
		auth, limits, err := front.LoadTenants(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		tenantLimits = limits
		gate = front.NewGate(front.Config{Auth: auth, Limits: limits})
	}

	// Fair-share worker governor: one arbiter shared by every shard
	// service, owning the *process-wide* reader-worker budget. Each
	// session's AutoScaler becomes a bid source — its Resize calls route
	// through the governor, which water-fills the budget across starved
	// tenants by weight.
	var gov *front.Governor
	if *workerBudget > 0 {
		if !*autoscale {
			fatal(fmt.Errorf("-worker-budget needs -autoscale (the autoscalers are the governor's bid sources)"))
		}
		weights := make(map[string]int, len(tenantLimits))
		for t, l := range tenantLimits {
			weights[t] = l.Weight
		}
		gov = front.NewGovernor(front.GovernorConfig{Budget: *workerBudget, Weights: weights})
		cfg.Arbiter = gov
	}

	// One service + server per shard address. The services share the
	// landed table (and its raw-byte cache tier) but nothing else: each
	// shard's ScanCache and session cap are its own, which is exactly
	// what makes a fleet's cache capacity additive.
	type shard struct {
		addr string
		svc  *dpp.Service
		srv  *dppnet.Server
		ln   net.Listener
	}
	// Served table metadata: the tablez handshake hands a connecting
	// trainer everything it needs to start cold — the derived spec, the
	// file plan, the schema facts — with no local table build.
	meta := &dppnet.TableMeta{
		Table:      tt.Spec.Table,
		DenseWidth: tt.Schema.Dense,
		TrainRows:  tt.TrainRows,
		S:          tt.S,
		Spec:       dpp.Spec{Spec: tt.Spec},
	}
	for _, hour := range tt.Catalog.Partitions(tt.Spec.Table) {
		files, err := tt.Catalog.Files(tt.Spec.Table, hour)
		if err != nil {
			fatal(err)
		}
		meta.Partitions = append(meta.Partitions, dppnet.TablePartition{Hour: hour, Files: files})
	}

	shards := make([]*shard, 0, len(addrs))
	for _, addr := range addrs {
		svc, err := dpp.New(cfg)
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(err)
		}
		srv := dppnet.NewServer(svc)
		srv.Tablez = meta
		srv.ResumeTTL = *resumeTTL
		srv.ResumeMax = *resumeMax
		srv.Gate = gate
		shards = append(shards, &shard{addr: addr, svc: svc, srv: srv, ln: ln})
	}

	// Live landing writer: one goroutine growing the served table an hour
	// partition per -flush-interval, generated deterministically from the
	// table seed, joined and clustered inside the writer. Every shard
	// shares the catalog, so each shard's Follow sessions observe the
	// same landings; -retain-hours chases the tail with retention drops,
	// which invalidate both cache tiers (never serving stale bytes).
	var (
		lander       *landing.Writer
		landerStop   chan struct{}
		landerDone   chan struct{}
		droppedHours atomic.Int64
	)
	if *follow {
		if *flushInterval <= 0 {
			fatal(fmt.Errorf("-follow needs a positive -flush-interval"))
		}
		w, err := landing.NewWriter(landing.Config{
			Store: tt.Store, Catalog: tt.Catalog, Table: tt.Spec.Table,
			Schema: tt.Schema, FlushRows: 4096, FlushInterval: *flushInterval,
			Cluster: true,
		})
		if err != nil {
			fatal(err)
		}
		lander = w
		landerStop, landerDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(landerDone)
			hour := int64(0)
			for _, h := range tt.Catalog.Partitions(tt.Spec.Table) {
				if h >= hour {
					hour = h + 1
				}
			}
			n := *sessions / 4
			if n == 0 {
				n = 1
			}
			for {
				select {
				case <-landerStop:
					if err := w.Close(); err != nil {
						fmt.Fprintln(os.Stderr, "recd-serve: landing writer close:", err)
					}
					return
				case <-time.After(*flushInterval):
				}
				samples := datagen.NewGenerator(tt.Schema, datagen.GeneratorConfig{
					Sessions: n, MeanSamplesPerSession: 14, Seed: *seed + 2000 + hour,
					LabelSignal: 2.0, CTR: 0.2,
				}).GeneratePartition()
				if err := w.Append(hour, samples...); err != nil {
					fmt.Fprintln(os.Stderr, "recd-serve: landing writer:", err)
					return
				}
				if *retainHours > 0 {
					dropped, err := tt.Catalog.EnforceRetention(tt.Store, tt.Spec.Table, *retainHours)
					if err != nil {
						fmt.Fprintln(os.Stderr, "recd-serve: retention:", err)
						return
					}
					droppedHours.Add(int64(len(dropped)))
				}
				hour++
			}
		}()
	}
	var landerOnce sync.Once
	stopLander := func() {
		if lander == nil {
			return
		}
		landerOnce.Do(func() { close(landerStop) })
		<-landerDone
	}

	// Graceful drain, triggered by the first SIGTERM/SIGINT or POST
	// /drainz: stop admitting, send in-flight streams their drain frame
	// (a fleet client moves the shard's remaining files to another shard;
	// a single-server trainer finishes here), wait up to -drain-timeout
	// for the streams to move off or end, then close.
	drainOnce := sync.Once{}
	drain := func() {
		drainOnce.Do(func() {
			go func() {
				fmt.Fprintln(os.Stderr, "recd-serve: draining (new sessions refused; active streams handed off)")
				stopLander()
				for _, sh := range shards {
					sh.srv.Drain()
				}
				deadline := time.Now().Add(*drainTimeout)
				for time.Now().Before(deadline) {
					active := int64(0)
					for _, sh := range shards {
						active += sh.srv.Stats().ConnsActive
					}
					if active == 0 {
						break
					}
					time.Sleep(100 * time.Millisecond)
				}
				for _, sh := range shards {
					sh.srv.Close()
				}
			}()
		})
	}

	// Observability sidecar: one private HTTP listener for the whole
	// process, with per-shard labeled series and every shard's session
	// lifecycle feeding one access log.
	var (
		obsSrv  *obs.Server
		alog    *obs.AccessLog
		obsDone chan error
	)
	if *obsListen != "" {
		reg := obs.NewRegistry()
		alog = obs.NewAccessLog(*accessLogN)
		obs.RegisterProcess(reg)
		obs.RegisterAccessLog(reg, alog)
		if tt.Cache != nil {
			obs.RegisterStoreCache(reg, nil, tt.Cache.Stats)
		}
		if lander != nil {
			obs.RegisterLanding(reg, nil, lander.Stats)
		}
		for i, sh := range shards {
			labels := obs.Labels{"shard": strconv.Itoa(i)}
			obs.RegisterService(reg, labels, sh.svc)
			obs.RegisterNetServer(reg, labels, sh.srv)
			sh.srv.OnSession = obs.SessionHook(alog)
		}
		if gate != nil {
			obs.RegisterGate(reg, nil, gate)
		}
		if gov != nil {
			tenants := make([]string, 0, len(tenantLimits))
			for t := range tenantLimits {
				tenants = append(tenants, t)
			}
			sort.Strings(tenants)
			obs.RegisterGovernor(reg, nil, gov, tenants)
		}
		statsz := func() any {
			out := make(map[string]any, len(shards)+2)
			for i, sh := range shards {
				out[fmt.Sprintf("shard%d", i)] = map[string]any{
					"addr": sh.addr, "service": sh.svc.Stats(), "net": sh.srv.Stats(),
				}
			}
			if gate != nil {
				out["gate"] = gate.Stats()
			}
			if gov != nil {
				out["governor"] = gov.Stats()
			}
			return out
		}
		obsSrv = obs.NewServer(obs.Config{Registry: reg, AccessLog: alog, Statsz: statsz, Drain: drain})
		obsLn, err := net.Listen("tcp", *obsListen)
		if err != nil {
			fatal(err)
		}
		obsDone = make(chan error, 1)
		go func() { obsDone <- obsSrv.Serve(obsLn) }()
		fmt.Printf("recd-serve: observability sidecar on %s\n", obsLn.Addr())
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "recd-serve: shutting down")
		drain()
		// A second signal skips the drain grace period.
		<-sigs
		fmt.Fprintln(os.Stderr, "recd-serve: second signal, forcing shutdown")
		for _, sh := range shards {
			sh.srv.Close()
		}
	}()

	bound := make([]string, len(shards))
	for i, sh := range shards {
		bound[i] = sh.ln.Addr().String()
	}
	fmt.Printf("recd-serve: table %q (%d samples, S=%.1f, %d dedup groups), %d shard(s) on %s\n",
		tt.Spec.Table, tt.TrainRows, tt.S, len(tt.Spec.DedupSparseFeatures), len(shards), strings.Join(bound, " "))

	errCh := make(chan error, len(shards))
	for _, sh := range shards {
		go func(sh *shard) { errCh <- sh.srv.Serve(sh.ln) }(sh)
	}
	for range shards {
		if err := <-errCh; err != nil {
			// One listener failing takes the process down; the trainer-side
			// fleet treats the lost shard like any mid-stream death.
			for _, sh := range shards {
				sh.srv.Close()
			}
			fatal(err)
		}
	}

	stopLander()
	if lander != nil {
		st := lander.Stats()
		fmt.Printf("recd-serve: landing writer sealed %d files / %d rows (%d timed flushes); retention dropped %d hour(s)\n",
			st.FilesLanded, st.RowsLanded, st.TimedFlushes, droppedHours.Load())
	}
	for _, sh := range shards {
		st := sh.svc.Stats()
		if fs := st.Follow; fs.ExtendedFiles > 0 {
			fmt.Printf("recd-serve: shard %s extended %d files into follow sessions\n", sh.addr, fs.ExtendedFiles)
		}
		fmt.Printf("recd-serve: shard %s served %d sessions, %d batches; scan cache %d/%d hits/misses (%d entries, %.1f MiB)\n",
			sh.addr, st.SessionsOpened, st.BatchesServed, st.Cache.Hits, st.Cache.Misses,
			st.Cache.Entries, float64(st.Cache.Bytes)/(1<<20))
		if *autoscale {
			fmt.Printf("recd-serve: shard %s autoscaler resized worker pools %d up / %d down (cap %d readers/session)\n",
				sh.addr, st.Scheduler.ScaleUps, st.Scheduler.ScaleDowns, *maxReaders)
		}
	}
	if tt.Cache != nil {
		bs := tt.Cache.Stats()
		fmt.Printf("recd-serve: raw-byte tier %d/%d hits/misses\n", bs.Hits, bs.Misses)
	}
	if gate != nil {
		gs := gate.Stats()
		fmt.Printf("recd-serve: front door rejected %d auth / %d quota / %d draining\n",
			gs.AuthFailures, gs.QuotaRejects, gs.DrainRejects)
		for _, ts := range gs.Tenants {
			fmt.Printf("recd-serve: tenant %s: %d sessions admitted, %.1f MiB streamed\n",
				ts.Tenant, ts.Admitted, float64(ts.Bytes)/(1<<20))
		}
	}
	for _, sh := range shards {
		if st := sh.srv.Stats(); st.DrainNotices > 0 {
			fmt.Printf("recd-serve: shard %s handed %d drain notices\n", sh.addr, st.DrainNotices)
		}
	}

	// Graceful sidecar teardown, after the data plane has drained: give
	// in-flight scrapes a bounded moment to finish, then print the access
	// log's lifetime tally — the shutdown-time flush of what the ring saw.
	if obsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := obsSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "recd-serve: sidecar shutdown:", err)
		}
		cancel()
		if err := <-obsDone; err != nil {
			fmt.Fprintln(os.Stderr, "recd-serve: sidecar:", err)
		}
		st := alog.Stats()
		fmt.Printf("recd-serve: access log: %d opens, %d closes, %d errors\n", st.Opens, st.Closes, st.Errors)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recd-serve:", err)
	os.Exit(1)
}
