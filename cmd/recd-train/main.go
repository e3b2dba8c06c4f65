// Command recd-train runs DLRM training end-to-end over a synthetic
// session-centric dataset: generate → cluster → land DWRF files → read
// through the preprocessing service with IKJT dedup → train with
// per-epoch held-out evaluation → save a checkpoint. It demonstrates the
// complete library surface: both execution modes, both optimizers, the
// model store, and cross-session scan sharing — every epoch opens fresh
// per-hour ShareScans sessions over the same landed partitions, so epoch
// 1 decodes each DWRF file once and every later epoch streams the same
// batches out of the service's ScanCache (and the raw-byte
// CachingBackend underneath) without touching the decode path again.
//
// With -connect the preprocessing service runs in another process: batches
// stream from a cmd/recd-serve instance over the dppnet TCP protocol
// instead of an in-process dpp.Service, and the scan sharing happens in
// the server — epoch 2 of this trainer (or another trainer with the same
// flags) hits a cache it never filled. The trainer starts cold from the
// wire: a tablez handshake fetches the served table's metadata (derived
// spec, per-hour file plan, schema facts), so no local table is built
// and -sessions/-batch/-seed are ignored in this mode. Connections are
// resumable — a restarted server picks each stream back up at the exact
// batch the trainer had consumed (see -reconnect-attempts).
//
// -connect also takes a comma-separated shard list (host1:port1,host2:...):
// each epoch's files are routed to exactly one shard by rendezvous
// hashing and the per-shard streams are merged client-side back into the
// single-server batch order, so the fleet's decoded-cache capacity is
// the sum of the shards' and a shard dying mid-epoch only re-routes its
// own remaining files.
//
// With -follow the trainer tails a live, growing table instead of
// re-reading hour 0: one Follow session blocks at end-of-catalog,
// observes newly landed files, and delivers them in landed order, and
// each -epochs "window" trains on the next table's-worth of live
// batches. Locally the trainer hosts its own landing writer
// (-flush-interval, -retain-hours); with -connect it tails a recd-serve
// running -follow, whose landings simply arrive as more batches on the
// stream. The tail is a ShareScans session like the per-hour ones, so N
// trainers tailing one server decode each landed file once between them.
// Follow streams do not resume — a tail has no frozen plan to replay
// against.
//
// Usage:
//
//	recd-train -epochs 4 -mode recd -opt adagrad -ckpt /tmp/model.ckpt
//	recd-serve -listen 127.0.0.1:7077 &
//	recd-train -connect 127.0.0.1:7077 -epochs 4
//	recd-serve -listen 127.0.0.1:7077,127.0.0.1:7078 &
//	recd-train -connect 127.0.0.1:7077,127.0.0.1:7078 -epochs 4
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dpp/landing"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/trainer"
)

func main() {
	var (
		epochs            = flag.Int("epochs", 4, "training epochs")
		sessions          = flag.Int("sessions", 200, "training sessions")
		batch             = flag.Int("batch", 128, "batch size")
		modeStr           = flag.String("mode", "recd", "execution mode: baseline or recd")
		optStr            = flag.String("opt", "adagrad", "optimizer: sgd or adagrad")
		lr                = flag.Float64("lr", 0.05, "learning rate")
		ckpt              = flag.String("ckpt", "", "checkpoint output path (optional)")
		seed              = flag.Int64("seed", 11, "random seed")
		connect           = flag.String("connect", "", "recd-serve address (host:port), or a comma-separated shard list for a sharded fleet; empty runs the service in-process")
		obsSide           = flag.String("obs-listen", "", "observability sidecar HTTP address for this trainer (/metrics, /debug/pprof, /healthz, /statsz); empty disables")
		reconnectAttempts = flag.Int("reconnect-attempts", 8, "with -connect: resume attempts after a lost connection before the stream fails; 0 disables resume")
		reconnectBackoff  = flag.Duration("reconnect-backoff", 250*time.Millisecond, "with -connect: base delay between resume attempts (doubles, capped)")
		authToken         = flag.String("auth-token", "", "with -connect: tenant token sent in every session handshake (match a line in recd-serve's -tenants file)")
		follow            = flag.Bool("follow", false, "windowed-epoch mode over the live tail: one Follow session replaces the per-epoch hour-0 reruns, each -epochs window training on the next table's-worth of freshly landed batches (locally the trainer hosts its own landing writer; with -connect point at a recd-serve running -follow)")
		flushInterval     = flag.Duration("flush-interval", 500*time.Millisecond, "with -follow and no -connect: the local landing cadence and the writer's latency-bound seal interval")
		retainHours       = flag.Int("retain-hours", 0, "with -follow and no -connect: keep only the newest N hour partitions; 0 keeps everything (retention that outruns the tailing consumer — or drops eval hour 1 — fails those reads)")
	)
	flag.Parse()

	var mode trainer.Mode
	switch *modeStr {
	case "baseline":
		mode = trainer.Baseline
	case "recd":
		mode = trainer.RecD
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeStr))
	}
	var opt trainer.Optimizer
	switch *optStr {
	case "sgd":
		opt = trainer.SGD
	case "adagrad":
		opt = trainer.Adagrad
	default:
		fatal(fmt.Errorf("unknown optimizer %q", *optStr))
	}

	ctx := context.Background()
	resume := dppnet.ResumePolicy{MaxAttempts: *reconnectAttempts, BaseDelay: *reconnectBackoff}

	// Table knowledge. Local mode lands the dataset; -connect mode starts
	// cold from the wire — a tablez handshake to the first address hands
	// over the served table's derived spec, file plan, and schema facts,
	// so the trainer builds no table at all.
	var (
		tt   *core.TrainTable
		meta *dppnet.TableMeta
	)
	if *connect == "" {
		var err error
		tt, err = core.BuildTrainTable(core.TrainTableConfig{
			Sessions: *sessions, Batch: *batch, Seed: *seed, StoreCacheBytes: 256 << 20,
		})
		if err != nil {
			fatal(err)
		}
	} else {
		addrs := splitAddrs(*connect)
		if len(addrs) == 0 {
			fatal(fmt.Errorf("empty -connect address list %q", *connect))
		}
		var err error
		meta, err = dppnet.NewClient(addrs[0]).Tablez(ctx)
		if err != nil {
			fatal(fmt.Errorf("tablez from %s: %w", addrs[0], err))
		}
	}

	// The two table sources reduce to one view for the model config and
	// the per-hour session requests.
	var (
		tableSpec          dpp.Spec
		denseIn, trainRows int
		meanS              float64
		hourFiles          func(hour int64) []string
	)
	if tt != nil {
		tableSpec = dpp.Spec{Spec: tt.Spec}
		denseIn, trainRows, meanS = tt.Schema.Dense, tt.TrainRows, tt.S
		hourFiles = func(hour int64) []string {
			files, err := tt.Catalog.Files(tt.Spec.Table, hour)
			if err != nil {
				fatal(err)
			}
			return files
		}
	} else {
		tableSpec = meta.Spec
		denseIn, trainRows, meanS = meta.DenseWidth, meta.TrainRows, meta.S
		hourFiles = func(hour int64) []string {
			files := meta.Files(hour)
			if files == nil {
				fatal(fmt.Errorf("served table %q has no partition for hour %d", meta.Table, hour))
			}
			return files
		}
	}

	// Trainer-side observability: in-process preprocessing series when
	// the service runs locally, plus process/runtime series either way.
	// The server-side view of a -connect run lives on recd-serve's own
	// -obs-listen sidecar.
	var reg *obs.Registry
	var statsz func() any
	if *obsSide != "" {
		reg = obs.NewRegistry()
		obs.RegisterProcess(reg)
		if tt != nil && tt.Cache != nil {
			obs.RegisterStoreCache(reg, nil, tt.Cache.Stats)
		}
	}

	// open abstracts where sessions come from: a local service or a
	// remote dppnet server. Both return the same dpp.Stream pull shape,
	// so the training loop below does not care which side of the TCP
	// boundary preprocessing runs on.
	var open func(hour int64) dpp.Stream
	var openFollow func() dpp.Stream
	var printSharing func()
	var noteStream func(dpp.Stream)
	if *connect == "" {
		svc, err := dpp.New(dpp.Config{Backend: tt.Backend, Catalog: tt.Catalog})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		if reg != nil {
			obs.RegisterService(reg, nil, svc)
			statsz = func() any { return svc.Stats() }
		}
		open = func(hour int64) dpp.Stream {
			sp := tableSpec
			sp.Files = hourFiles(hour)
			sp.ShareScans = true
			sess, err := svc.Open(ctx, sp)
			if err != nil {
				fatal(err)
			}
			return sess
		}
		openFollow = func() dpp.Stream {
			sp := tableSpec
			sp.Follow = true
			sp.ShareScans = true
			sess, err := svc.Open(ctx, sp)
			if err != nil {
				fatal(err)
			}
			return sess
		}
		printSharing = func() {
			cs := svc.Stats().Cache
			bs := tt.Cache.Stats()
			fmt.Printf("\nscan sharing across %d epochs: %d/%d scan-cache hits/misses (%d entries, %.1f MiB); raw-byte fallback tier %d/%d hits/misses\n",
				*epochs, cs.Hits, cs.Misses, cs.Entries, float64(cs.Bytes)/(1<<20), bs.Hits, bs.Misses)
		}
	} else if addrs := splitAddrs(*connect); len(addrs) > 1 {
		// Sharded fleet: one dppshard session per epoch-hour. No local
		// backend — the trainer built no table — which is fine for the
		// served spec (aligned batches never need a local carry re-fill).
		fleet, err := dppshard.New(dppshard.Config{Addrs: addrs, Resume: resume, AuthToken: *authToken})
		if err != nil {
			fatal(err)
		}
		var reroutes int64
		shardServed := make(map[string]int)
		open = func(hour int64) dpp.Stream {
			sp := tableSpec
			sp.Files = hourFiles(hour)
			sp.ShareScans = true
			sess, err := fleet.Open(ctx, sp)
			if err != nil {
				fatal(err)
			}
			return sess
		}
		noteStream = func(sess dpp.Stream) {
			fs, ok := sess.(*dppshard.Session)
			if !ok {
				return
			}
			stats, rr := fs.ShardStats()
			reroutes += rr
			for _, st := range stats {
				shardServed[st.Addr] += st.Served
			}
		}
		printSharing = func() {
			fmt.Printf("\nsharded scan sharing across %d epochs over %d shards (%d mid-stream re-routes):\n",
				*epochs, len(addrs), reroutes)
			for _, addr := range addrs {
				st, err := dppnet.NewClient(addr).ServiceStats(ctx)
				if err != nil {
					fmt.Printf("  shard %s: served %d files this trainer; statsz unavailable: %v\n", addr, shardServed[addr], err)
					continue
				}
				fmt.Printf("  shard %s: served %d files this trainer; scan cache %d/%d hits/misses, %d evictions, %d ghost hits (%d entries, %.1f MiB)\n",
					addr, shardServed[addr], st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.GhostHits,
					st.Cache.Entries, float64(st.Cache.Bytes)/(1<<20))
			}
		}
	} else {
		client := dppnet.NewClient(*connect)
		client.Resume = resume
		client.AuthToken = *authToken
		// Tally the scheduler telemetry each remote session's trailing
		// stats frame reports: scale events are the server-side
		// autoscaler at work, and the worker/consumer stall split is the
		// signal it scales on.
		var scaleUps, scaleDowns, schedSessions int64
		var workerStall, consumerStall time.Duration
		open = func(hour int64) dpp.Stream {
			sp := tableSpec
			sp.Files = hourFiles(hour)
			sp.ShareScans = true
			rs, err := client.Open(ctx, sp)
			if err != nil {
				fatal(err)
			}
			return rs
		}
		openFollow = func() dpp.Stream {
			// Follow streams do not resume — a fresh client without the
			// resume policy, or the open is refused.
			fc := dppnet.NewClient(*connect)
			fc.AuthToken = *authToken
			sp := tableSpec
			sp.Follow = true
			sp.ShareScans = true
			rs, err := fc.Open(ctx, sp)
			if err != nil {
				fatal(err)
			}
			return rs
		}
		noteStream = func(sess dpp.Stream) {
			rs, ok := sess.(*dppnet.RemoteSession)
			if !ok {
				return
			}
			if st, ok := rs.Stats(); ok {
				scaleUps += st.Scheduler.ScaleUps
				scaleDowns += st.Scheduler.ScaleDowns
				workerStall += st.Scheduler.WorkerStall
				consumerStall += st.Scheduler.ConsumerStall
				schedSessions++
			}
		}
		printSharing = func() {
			st, err := client.ServiceStats(ctx)
			if err != nil {
				fatal(fmt.Errorf("statsz from %s: %w", *connect, err))
			}
			fmt.Printf("\nremote scan sharing at %s across %d epochs: %d/%d scan-cache hits/misses (%d entries, %.1f MiB); %d sessions served, %d batches shipped\n",
				*connect, *epochs, st.Cache.Hits, st.Cache.Misses, st.Cache.Entries,
				float64(st.Cache.Bytes)/(1<<20), st.SessionsOpened, st.BatchesServed)
			if schedSessions > 0 {
				fmt.Printf("server scheduling observed across %d sessions: %d/%d scale-ups/downs (service total %d/%d); stall %v waiting on readers, %v waiting on this trainer\n",
					schedSessions, scaleUps, scaleDowns, st.Scheduler.ScaleUps, st.Scheduler.ScaleDowns,
					workerStall.Round(time.Millisecond), consumerStall.Round(time.Millisecond))
			}
		}
	}

	if *follow && openFollow == nil {
		fatal(fmt.Errorf("-follow does not compose with a sharded -connect fleet; point at a single recd-serve running -follow"))
	}

	// Local follow mode hosts its own landing writer: a goroutine growing
	// the table one generated hour partition per -flush-interval, exactly
	// what `recd-serve -follow` runs server-side.
	var stopLander = func() {}
	if *follow && tt != nil {
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
		landerStop, landerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(landerDone)
			hour := int64(2) // hours 0 and 1 are the landed train/eval partitions
			n := *sessions / 4
			if n == 0 {
				n = 1
			}
			for {
				select {
				case <-landerStop:
					if err := w.Close(); err != nil {
						fmt.Fprintln(os.Stderr, "recd-train: landing writer close:", err)
					}
					return
				case <-time.After(*flushInterval):
				}
				samples := datagen.NewGenerator(tt.Schema, datagen.GeneratorConfig{
					Sessions: n, MeanSamplesPerSession: 14, Seed: *seed + 2000 + hour,
					LabelSignal: 2.0, CTR: 0.2,
				}).GeneratePartition()
				if err := w.Append(hour, samples...); err != nil {
					fmt.Fprintln(os.Stderr, "recd-train: landing writer:", err)
					return
				}
				if *retainHours > 0 {
					if _, err := tt.Catalog.EnforceRetention(tt.Store, tt.Spec.Table, *retainHours); err != nil {
						fmt.Fprintln(os.Stderr, "recd-train: retention:", err)
						return
					}
				}
				hour++
			}
		}()
		var once sync.Once
		stopLander = func() {
			once.Do(func() { close(landerStop) })
			<-landerDone
		}
		defer stopLander()
	}

	var obsSrv *obs.Server
	var obsDone chan error
	if reg != nil {
		obsSrv = obs.NewServer(obs.Config{Registry: reg, Statsz: statsz})
		ln, err := net.Listen("tcp", *obsSide)
		if err != nil {
			fatal(err)
		}
		obsDone = make(chan error, 1)
		go func() { obsDone <- obsSrv.Serve(ln) }()
		fmt.Printf("recd-train: observability sidecar on %s\n", ln.Addr())
	}

	readHour := func(hour int64) []*reader.Batch {
		sess := open(hour)
		defer sess.Close()
		var out []*reader.Batch
		for {
			b, err := sess.Next(ctx)
			if err == io.EOF {
				if noteStream != nil {
					noteStream(sess)
				}
				return out
			}
			if err != nil {
				fatal(err)
			}
			out = append(out, b)
		}
	}

	model, err := trainer.New(trainer.Config{
		EmbDim:       16,
		DenseIn:      denseIn,
		BottomHidden: []int{32},
		TopHidden:    []int{64, 32},
		Features: []trainer.FeatureConfig{
			{Key: "hist_items", Pool: trainer.AttentionPool, TableRows: 1 << 12},
			{Key: "hist_cats", Pool: trainer.SumPool, TableRows: 1 << 10},
			{Key: "user_prefs", Pool: trainer.MeanPool, TableRows: 1 << 10},
			{Key: "item_id", Pool: trainer.SumPool, TableRows: 1 << 10},
			{Key: "item_cat", Pool: trainer.SumPool, TableRows: 1 << 8},
		},
		Opt:  opt,
		LR:   float32(*lr),
		Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	where := "in-process service"
	if *connect != "" {
		where = "remote service at " + *connect
	}
	fmt.Printf("training on %d samples (S=%.1f), %d dedup groups, mode=%s opt=%s, %s\n\n",
		trainRows, meanS, len(tableSpec.DedupSparseFeatures), mode, opt, where)

	if *follow {
		// Windowed epochs over the live tail: one Follow session supplies
		// every window; each window trains on the next table's-worth of
		// batches the tail delivers (blocking while the writer lands more),
		// then evaluates on the held-out hour as usual. When the windows
		// are done, EndFollow drains the tail's remainder to a clean EOF.
		winBatches := trainRows / *batch
		if winBatches == 0 {
			winBatches = 1
		}
		sess := openFollow()
		for e := 1; e <= *epochs; e++ {
			start := time.Now()
			var lastLoss float64
			for i := 0; i < winBatches; i++ {
				b, err := sess.Next(ctx)
				if err != nil {
					fatal(err) // the tail never EOFs before EndFollow
				}
				loss, _, err := model.TrainStep(b, mode)
				if err != nil {
					fatal(err)
				}
				lastLoss = loss
			}
			m, err := model.Evaluate(readHour(1), mode)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("window %d: train loss %.4f over %d live batches | eval logloss %.4f auc %.4f calib %.2f (%v)\n",
				e, lastLoss, winBatches, m.LogLoss, m.AUC, m.Calibration, time.Since(start).Round(time.Millisecond))
		}
		stopLander()
		sess.(interface{ EndFollow() }).EndFollow()
		tail := 0
		for {
			b, err := sess.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
			if _, _, err := model.TrainStep(b, mode); err != nil {
				fatal(err)
			}
			tail++
		}
		if noteStream != nil {
			noteStream(sess)
		}
		sess.Close()
		fmt.Printf("\nfollow tail ended: %d remainder batches trained after EndFollow\n", tail)
	} else {
		for e := 1; e <= *epochs; e++ {
			start := time.Now()
			var lastLoss float64
			trainBatches := readHour(0) // epoch 1 decodes; later epochs hit the scan cache
			for _, b := range trainBatches {
				loss, _, err := model.TrainStep(b, mode)
				if err != nil {
					fatal(err)
				}
				lastLoss = loss
			}
			m, err := model.Evaluate(readHour(1), mode)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("epoch %d: train loss %.4f | eval logloss %.4f auc %.4f calib %.2f (%v)\n",
				e, lastLoss, m.LogLoss, m.AUC, m.Calibration, time.Since(start).Round(time.Millisecond))
		}
	}

	printSharing()

	if *ckpt != "" {
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*ckpt, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\ncheckpoint written to %s (%d bytes)\n", *ckpt, buf.Len())
	}

	if obsSrv != nil {
		sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		if err := obsSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "recd-train: sidecar shutdown:", err)
		}
		cancel()
		<-obsDone
	}
}

// splitAddrs parses a comma-separated address list, trimming whitespace.
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	addrs := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	return addrs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recd-train:", err)
	os.Exit(1)
}
