package dppnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// testEnv lands one clustered partition of synthetic data, the same
// landing the dpp package's determinism tests use (256 rows per file, so
// batch size 64 is file-aligned and 48 is not).
type testEnv struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
	schema  *datagen.Schema
	samples []datagen.Sample
}

func newTestEnv(t testing.TB, sessions int) *testEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 6, Seed: 99,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 256, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: store, catalog: catalog, schema: schema, samples: samples}
}

func alignedSpec() reader.Spec {
	return reader.Spec{
		Table:          "tbl",
		BatchSize:      64,
		SparseFeatures: []string{"item_0", "item_1"},
		DedupSparseFeatures: [][]string{
			{"user_seq_0", "user_seq_1"},
			{"user_elem_0", "user_elem_1", "user_elem_2"},
		},
	}
}

func misalignedSpec() reader.Spec {
	return reader.Spec{
		Table:     "tbl",
		BatchSize: 48,
		SparseFeatures: []string{
			"item_0", "item_1", "user_seq_0", "user_seq_1",
			"user_elem_0", "user_elem_1", "user_elem_2",
		},
		SparseTransforms: []reader.SparseTransform{
			reader.HashMod{Features: []string{"user_seq_0"}, TableSize: 1 << 20},
		},
	}
}

// counters extracts the deterministic Stats fields.
func counters(s reader.Stats) [6]int64 {
	return [6]int64{s.ReadBytes, s.SentBytes, s.RowsDecoded, s.BatchesProduced, s.ConvertValues, s.ProcessOps}
}

// harness is one service + server pair on a loopback listener.
type harness struct {
	svc  *dpp.Service
	srv  *Server
	addr string
}

// startServer brings up a fresh service and a dppnet server for it on an
// ephemeral loopback port. Shut it down explicitly (before leak checks)
// or rely on the cleanup.
func startServer(t testing.TB, env *testEnv, cfg dpp.Config) *harness {
	t.Helper()
	cfg.Backend = env.store
	cfg.Catalog = env.catalog
	svc, err := dpp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	h := &harness{svc: svc, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() {
		h.shutdown(t)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return h
}

func (h *harness) shutdown(t testing.TB) {
	t.Helper()
	if err := h.srv.Close(); err != nil {
		t.Errorf("server Close: %v", err)
	}
	h.svc.Close()
}

// drainLocal pulls a local session dry, returning encoded batches.
func drainLocal(t *testing.T, sess *dpp.Session) [][]byte {
	t.Helper()
	var enc [][]byte
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			return enc
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
}

// drainRemote pulls a remote session dry and closes it.
func drainRemote(t *testing.T, rs *RemoteSession) [][]byte {
	t.Helper()
	defer rs.Close()
	var enc [][]byte
	for {
		b, err := rs.Next(context.Background())
		if err == io.EOF {
			return enc
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
}

// TestRemoteSessionMatchesLocal is the network boundary's determinism
// contract (run under -race in CI): for a file-aligned spec, a
// misaligned spec (rows carry across files), and a ShareScans spec, a
// session streamed over TCP must deliver the same batches byte for byte
// as a local dpp.Session with the same spec, and the trailing stats
// frame must carry the same deterministic counters and cache traffic the
// local session reports.
//
// The server runs with autoscaling ON (aggressive interval, so resizes
// really happen mid-stream): the scheduling loop lives server-side where
// the credit window is, and it must never perturb the stream bytes or
// the deterministic counters a trainer sees.
func TestRemoteSessionMatchesLocal(t *testing.T) {
	env := newTestEnv(t, 60)
	autoscale := &dpp.AutoScalerConfig{MinReaders: 1, MaxReaders: 4, Interval: time.Millisecond}
	cases := []struct {
		name  string
		spec  reader.Spec
		share bool
	}{
		{"aligned", alignedSpec(), false},
		{"misaligned", misalignedSpec(), false},
		{"sharescans", alignedSpec(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh services on both sides so cache state matches: a
			// first ShareScans scan misses every aligned file on either
			// path.
			localSvc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
			if err != nil {
				t.Fatal(err)
			}
			defer localSvc.Close()
			sess, err := localSvc.Open(context.Background(), dpp.Spec{Spec: tc.spec, ShareScans: tc.share})
			if err != nil {
				t.Fatal(err)
			}
			wantEnc := drainLocal(t, sess)
			wantStats := sess.Stats()

			h := startServer(t, env, dpp.Config{AutoScale: autoscale})
			rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: tc.spec, ShareScans: tc.share})
			if err != nil {
				t.Fatal(err)
			}
			gotEnc := drainRemote(t, rs)

			if len(gotEnc) != len(wantEnc) || len(wantEnc) == 0 {
				t.Fatalf("remote session produced %d batches, local %d (nonzero)", len(gotEnc), len(wantEnc))
			}
			for i := range wantEnc {
				if !bytes.Equal(gotEnc[i], wantEnc[i]) {
					t.Fatalf("batch %d differs between remote and local stream", i)
				}
			}
			gotStats, ok := rs.Stats()
			if !ok {
				t.Fatal("remote stats unavailable after clean EOF")
			}
			if got, want := counters(gotStats.Reader), counters(wantStats.Reader); got != want {
				t.Fatalf("remote stats counters %v, local %v", got, want)
			}
			if gotStats.Cache != wantStats.Cache {
				t.Fatalf("remote cache traffic %+v, local %+v", gotStats.Cache, wantStats.Cache)
			}
			if tc.share && gotStats.Cache.Misses == 0 {
				t.Fatal("ShareScans session reported no cache traffic at all")
			}
			// The scheduler block crosses the wire: the pool size is
			// wherever the autoscaler left it inside its bounds, for a
			// ShareScans session as for any other.
			if w := gotStats.Scheduler.Workers; w < autoscale.MinReaders || w > autoscale.MaxReaders {
				t.Fatalf("remote scheduler stats carried %d workers, autoscaler bounds [%d, %d]", w, autoscale.MinReaders, autoscale.MaxReaders)
			}
		})
	}
}

// TestRemoteStatszMatchesService: the statsz handshake returns the same
// aggregate accounting Service.Stats reports in-process.
func TestRemoteStatszMatchesService(t *testing.T) {
	env := newTestEnv(t, 40)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)

	rs, err := client.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	drainRemote(t, rs)

	got, err := client.ServiceStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := h.svc.Stats()
	if got != want {
		t.Fatalf("remote statsz %+v, local Service.Stats %+v", got, want)
	}
	if got.SessionsOpened != 1 || got.BatchesServed == 0 || got.Cache.Misses == 0 {
		t.Fatalf("statsz carries no traffic: %+v", got)
	}
}

// TestRemoteBackpressureWindow: a consumer that stalls stalls the server
// at the credit window — the service hands out at most `window` batches
// while no credits come back, then the drain completes normally.
func TestRemoteBackpressureWindow(t *testing.T) {
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})

	// Window = Readers(1) × Buffer(1) = 1.
	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Without a single Next call, the server may pull exactly one batch
	// from the session (the unspent initial credit) and must then park.
	testutil.Eventually(t, func() bool { return h.svc.Stats().BatchesServed >= 1 },
		"server started streaming")
	time.Sleep(150 * time.Millisecond) // would overshoot here if credits were ignored
	if n := h.svc.Stats().BatchesServed; n != 1 {
		t.Fatalf("server pulled %d batches with no credits returned, window is 1", n)
	}

	got := drainRemote(t, rs)
	if len(got) < 2 {
		t.Fatalf("drain returned %d batches, want a multi-batch scan", len(got))
	}
	if n := h.svc.Stats().BatchesServed; n != int64(len(got)) {
		t.Fatalf("service served %d batches, client received %d", n, len(got))
	}
}

// TestRemoteAutoscaleRespondsToCreditStarvation closes the loop the
// ROADMAP asked for: the dppnet credit window measures consumer pace,
// and with autoscaling on, a remote consumer that stops returning
// credits starves the server-side merge at the window — which the
// session's AutoScaler reads as consumer stall and answers by shrinking
// the pool. The stream the slow consumer eventually drains is still
// byte-identical in count and carries the scale events in its trailing
// stats frame.
func TestRemoteAutoscaleRespondsToCreditStarvation(t *testing.T) {
	// A wide scan (hundreds of batches over many files), so the parked
	// consumer provably leaves the merge starved mid-stream rather than
	// letting the whole table fit in the window + output buffer.
	env := newTestEnv(t, 400)
	h := startServer(t, env, dpp.Config{
		AutoScale: &dpp.AutoScalerConfig{MinReaders: 1, MaxReaders: 8, Interval: 2 * time.Millisecond},
	})

	// Window = Readers(4) × Buffer(1) = 4 batches in flight, then the
	// server parks: no credits come back because the consumer never
	// calls Next.
	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Readers: 4, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, func() bool { return h.svc.Stats().Scheduler.ScaleDowns >= 3 },
		"server scaled the starved session down (scheduler %+v)", h.svc.Stats().Scheduler)

	got := drainRemote(t, rs)
	if len(got) < 2 {
		t.Fatalf("drain returned %d batches, want a multi-batch scan", len(got))
	}
	st, ok := rs.Stats()
	if !ok {
		t.Fatal("stats missing after clean EOF")
	}
	if st.Scheduler.ScaleDowns < 3 || st.Scheduler.ConsumerStall == 0 {
		t.Fatalf("trailing stats carry no starvation evidence: %+v", st.Scheduler)
	}
}

// TestRemoteSessionContextCancellation: cancelling the consumer's
// context surfaces promptly from Next, and cancelling the Open context
// tears the server-side session down without an explicit Close.
func TestRemoteSessionContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := NewClient(h.addr).Open(ctx, dpp.Spec{Spec: alignedSpec(), Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := rs.Next(ctx)
		if err == nil {
			continue // batches already in flight may still surface
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
			// The watcher closes the connection on cancel, so a Next
			// racing it may see the connection error instead; both are
			// prompt teardown, but a hang or a clean EOF stream is not.
			var terminal bool
			rs.mu.Lock()
			terminal = rs.termErr != nil
			rs.mu.Unlock()
			if !terminal {
				t.Fatalf("Next after cancel = %v, want context/teardown error", err)
			}
		}
		if errors.Is(err, io.EOF) {
			t.Fatal("cancelled session streamed to clean EOF")
		}
		break
	}
	rs.Close()

	// The server side must release the session slot.
	testutil.Eventually(t, func() bool { return h.svc.Stats().ActiveSessions == 0 },
		"server released the cancelled session's slot")

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestRemoteSessionClose: Close mid-stream is idempotent, later Nexts
// report dpp.ErrClosed (the local session contract), and both sides tear
// down leak-free.
func TestRemoteSessionClose(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := rs.Next(context.Background()); !errors.Is(err, dpp.ErrClosed) {
		t.Fatalf("Next after Close = %v, want dpp.ErrClosed", err)
	}

	testutil.Eventually(t, func() bool { return h.svc.Stats().ActiveSessions == 0 },
		"server released the closed session's slot")

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestRemoteShareScansWarmCache: two successive remote sessions with one
// spec share the server's ScanCache across connections — the second
// decodes nothing, the batches still arrive byte-identical. This is the
// cross-process version of the PR-3 sharing contract.
func TestRemoteShareScansWarmCache(t *testing.T) {
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)

	var first [][]byte
	for pass := 0; pass < 2; pass++ {
		rs, err := client.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), ShareScans: true})
		if err != nil {
			t.Fatal(err)
		}
		enc := drainRemote(t, rs)
		st, ok := rs.Stats()
		if !ok {
			t.Fatalf("pass %d: stats missing", pass)
		}
		if pass == 0 {
			first = enc
			if st.Cache.Hits != 0 || st.Cache.Misses == 0 {
				t.Fatalf("cold pass cache traffic %+v", st.Cache)
			}
			continue
		}
		if len(enc) != len(first) {
			t.Fatalf("warm pass produced %d batches, cold %d", len(enc), len(first))
		}
		for i := range first {
			if !bytes.Equal(enc[i], first[i]) {
				t.Fatalf("warm batch %d differs from cold batch", i)
			}
		}
		if st.Cache.Misses != 0 || st.Cache.Hits == 0 {
			t.Fatalf("warm pass cache traffic %+v, want all hits", st.Cache)
		}
		if st.Reader.RowsDecoded != 0 {
			t.Fatalf("warm pass decoded %d rows, want 0", st.Reader.RowsDecoded)
		}
	}
}
