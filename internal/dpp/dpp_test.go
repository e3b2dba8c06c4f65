package dpp_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/front"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// testEnv lands one clustered partition of synthetic data.
type testEnv struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
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
	return &testEnv{store: store, catalog: catalog, samples: samples}
}

func newService(t testing.TB, env *testEnv, cfg dpp.Config) *dpp.Service {
	t.Helper()
	cfg.Backend = env.store
	cfg.Catalog = env.catalog
	svc, err := dpp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func dedupSpec() reader.Spec {
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

func kjtSpec() reader.Spec {
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

// serialReference runs one Reader serially over the whole table — the
// reference stream a Readers==1 session must match byte for byte.
func serialReference(t *testing.T, env *testEnv, spec reader.Spec) ([][]byte, reader.Stats) {
	t.Helper()
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	var enc [][]byte
	if err := r.Run(context.Background(), files, func(b *reader.Batch) error {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			return err
		}
		enc = append(enc, buf.Bytes())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return enc, r.Stats()
}

// counters extracts the deterministic Stats fields.
func counters(s reader.Stats) [6]int64 {
	return [6]int64{s.ReadBytes, s.SentBytes, s.RowsDecoded, s.BatchesProduced, s.ConvertValues, s.ProcessOps}
}

func drainSession(t *testing.T, sess *dpp.Session) [][]byte {
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

// TestConcurrentSessionsMatchSerial is the service determinism contract
// (run under -race in CI): two sessions with different specs consumed
// concurrently over one Service must each produce batches byte-identical
// to their serial single-reader reference runs, with identical
// deterministic Stats counters.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	env := newTestEnv(t, 60)
	svc := newService(t, env, dpp.Config{})

	specs := []reader.Spec{dedupSpec(), kjtSpec()}
	wantEnc := make([][][]byte, len(specs))
	wantStats := make([]reader.Stats, len(specs))
	for i, spec := range specs {
		wantEnc[i], wantStats[i] = serialReference(t, env, spec)
	}

	gotEnc := make([][][]byte, len(specs))
	gotStats := make([]reader.Stats, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *dpp.Session) {
			defer wg.Done()
			for {
				b, err := sess.Next(context.Background())
				if err == io.EOF {
					gotStats[i] = sess.Stats().Reader
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				if err := b.Encode(&buf); err != nil {
					errs[i] = err
					return
				}
				gotEnc[i] = append(gotEnc[i], buf.Bytes())
			}
		}(i, sess)
	}
	wg.Wait()

	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if len(gotEnc[i]) != len(wantEnc[i]) {
			t.Fatalf("session %d produced %d batches, serial reference %d", i, len(gotEnc[i]), len(wantEnc[i]))
		}
		for bi := range wantEnc[i] {
			if !bytes.Equal(gotEnc[i][bi], wantEnc[i][bi]) {
				t.Fatalf("session %d batch %d differs from serial reference", i, bi)
			}
		}
		if got, want := counters(gotStats[i]), counters(wantStats[i]); got != want {
			t.Fatalf("session %d stats counters %v, serial reference %v", i, got, want)
		}
	}

	st := svc.Stats()
	if st.SessionsOpened != 2 {
		t.Fatalf("SessionsOpened = %d want 2", st.SessionsOpened)
	}
	if st.ActiveSessions != 0 {
		t.Fatalf("ActiveSessions = %d want 0 after exhaustion", st.ActiveSessions)
	}
	if want := int64(len(wantEnc[0]) + len(wantEnc[1])); st.BatchesServed != want {
		t.Fatalf("BatchesServed = %d want %d", st.BatchesServed, want)
	}
}

// TestMultiReaderSessionMatchesSerial: the ordered work queue makes the
// batch stream worker-count independent — with Readers > 1 the stream is
// byte-identical to the single serial scan over the whole file list
// (batch boundaries and all, even when rows carry across files), with
// identical deterministic counters.
func TestMultiReaderSessionMatchesSerial(t *testing.T) {
	env := newTestEnv(t, 60)
	svc := newService(t, env, dpp.Config{})

	for _, spec := range []reader.Spec{dedupSpec(), kjtSpec()} {
		wantEnc, wantStats := serialReference(t, env, spec)
		for _, workers := range []int{1, 2, 3, 4, 5} {
			sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, Readers: workers, Buffer: 1})
			if err != nil {
				t.Fatal(err)
			}
			gotEnc := drainSession(t, sess)

			if len(gotEnc) != len(wantEnc) {
				t.Fatalf("readers=%d produced %d batches, serial reference %d", workers, len(gotEnc), len(wantEnc))
			}
			for i := range wantEnc {
				if !bytes.Equal(gotEnc[i], wantEnc[i]) {
					t.Fatalf("readers=%d batch %d differs from serial reference", workers, i)
				}
			}
			if got, want := counters(sess.Stats().Reader), counters(wantStats); got != want {
				t.Fatalf("readers=%d stats counters %v, serial reference %v", workers, got, want)
			}
			if w := sess.Stats().Scheduler.Workers; w != workers {
				t.Fatalf("SchedulerStats.Workers = %d, want %d", w, workers)
			}
		}
	}
}

// TestSessionCancellation: cancelling the job context mid-stream makes
// Next fail with the context error and tears the workers down without
// leaking goroutines.
func TestSessionCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 40)
	svc := newService(t, env, dpp.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := svc.Open(ctx, dpp.Spec{Spec: dedupSpec(), Readers: 2, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := sess.Next(context.Background())
		if err == nil {
			continue // batches already buffered may still surface
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel = %v, want context.Canceled", err)
		}
		break
	}
	sess.Close()

	testutil.WaitForGoroutines(t, before)
}

// TestSessionClose: Close mid-stream unblocks parked workers, later Next
// calls report ErrClosed, and the service slot is released.
func TestSessionClose(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 40)
	svc := newService(t, env, dpp.Config{})
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	for {
		_, err := sess.Next(context.Background())
		if err == nil {
			continue
		}
		if !errors.Is(err, dpp.ErrClosed) {
			t.Fatalf("Next after Close = %v, want ErrClosed", err)
		}
		break
	}
	if n := svc.Stats().ActiveSessions; n != 0 {
		t.Fatalf("ActiveSessions = %d want 0 after Close", n)
	}

	testutil.WaitForGoroutines(t, before)
}

// TestServiceAdmission covers the service lifecycle errors: closed
// service, unknown table, and spec validation.
func TestServiceAdmission(t *testing.T) {
	env := newTestEnv(t, 10)

	if _, err := dpp.New(dpp.Config{}); err == nil {
		t.Fatal("expected error for missing backend")
	}

	svc := newService(t, env, dpp.Config{})
	bad := dedupSpec()
	bad.Table = "missing"
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: bad}); err == nil {
		t.Fatal("expected unknown-table error")
	}
	invalid := dedupSpec()
	invalid.BatchSize = 0
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: invalid}); err == nil {
		t.Fatal("expected spec validation error")
	}
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Readers: -1}); err == nil {
		t.Fatal("expected negative-readers error")
	}

	svc.Close()
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec()}); err == nil {
		t.Fatal("expected closed-service error")
	}
}

// TestSessionReaderError: a runtime reader failure (a dedup group naming
// a feature the table lacks) surfaces out of Next, not silently as EOF,
// and the dead session leaves the service without an explicit Close.
func TestSessionReaderError(t *testing.T) {
	env := newTestEnv(t, 10)
	svc := newService(t, env, dpp.Config{})
	spec := dedupSpec()
	spec.DedupSparseFeatures = append(spec.DedupSparseFeatures, []string{"not_a_feature"})
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := sess.Next(context.Background())
		if err == io.EOF {
			t.Fatal("reader error swallowed: got EOF")
		}
		if err != nil {
			break
		}
	}
	if n := svc.Stats().ActiveSessions; n != 0 {
		t.Fatalf("ActiveSessions = %d want 0 after reader error", n)
	}
}

// sessionCap is a gate that caps the default tenant, which every session
// of a server without auth belongs to, at maxSessions concurrent sessions.
func sessionCap(maxSessions int) *front.Gate {
	return front.NewGate(front.Config{Limits: map[string]front.Limits{front.DefaultTenant: {MaxSessions: maxSessions}}})
}

// TestConcurrentOpenRespectsCap hammers Open from many goroutines against
// a server whose gate caps the tenant, the one admission cap: admissions
// must never exceed the cap even under contention (the gate's check and
// charge are one atomic admission), and a refusal is a remote error that
// opened nothing. The table is several credit windows long, so that no
// admitted session's stream can end on the server while the gate is read.
func TestConcurrentOpenRespectsCap(t *testing.T) {
	env := newTestEnv(t, 60)
	const maxSessions = 3
	svc := newService(t, env, dpp.Config{})
	gate := sessionCap(maxSessions)
	addr, stop := serveOn(t, svc, gate)
	defer stop()
	client := dppnet.NewClient(addr)

	const attempts = 16
	sessions := make([]*dppnet.RemoteSession, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := client.Open(context.Background(), dpp.Spec{Spec: dedupSpec()})
			if err == nil {
				sessions[i] = sess
			} else if !errors.Is(err, dppnet.ErrRemote) {
				t.Errorf("refused open = %v, want a remote error", err)
			}
		}(i)
	}
	wg.Wait()

	admitted := 0
	for _, sess := range sessions {
		if sess != nil {
			admitted++
		}
	}
	if admitted > maxSessions {
		t.Fatalf("admitted %d sessions, cap %d", admitted, maxSessions)
	}
	if admitted == 0 {
		t.Fatal("no session admitted at all")
	}
	if st := gate.TenantStats(front.DefaultTenant); st.Active != admitted {
		t.Fatalf("gate holds %d sessions, want the %d admitted", st.Active, admitted)
	}
	for _, sess := range sessions {
		if sess != nil {
			sess.Close()
		}
	}
}

// TestSessionExplicitFiles: Spec.Files scopes the session to a subset of
// the table (recd-train reads per-hour partitions this way).
func TestSessionExplicitFiles(t *testing.T) {
	env := newTestEnv(t, 30)
	svc := newService(t, env, dpp.Config{})

	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Skip("partition landed in a single file")
	}
	sub := files[:1]

	r, err := reader.NewReader(env.store, dedupSpec())
	if err != nil {
		t.Fatal(err)
	}
	var wantRows int64
	if err := r.Run(context.Background(), sub, func(b *reader.Batch) error {
		wantRows += int64(b.Size)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: sub})
	if err != nil {
		t.Fatal(err)
	}
	var gotRows int64
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gotRows += int64(b.Size)
	}
	if gotRows != wantRows || gotRows == 0 {
		t.Fatalf("explicit-files session rows = %d want %d (nonzero)", gotRows, wantRows)
	}
}

// TestSharedSessionsMatchSerial is the cross-session scan-sharing
// determinism contract (run under -race in CI): concurrent ShareScans
// sessions — three with one spec (batch-aligned files), one with a
// different spec (misaligned batch size, so rows carry across files and
// every file is cut at the carry it is entered with), and one unshared
// control — must each produce batch streams byte-identical to their serial
// single-reader references, while the aligned trio decodes the table
// exactly once between them.
func TestSharedSessionsMatchSerial(t *testing.T) {
	env := newTestEnv(t, 60)
	svc := newService(t, env, dpp.Config{})

	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	nFiles := int64(len(files))
	if nFiles < 2 {
		t.Skip("partition landed in a single file")
	}

	// Sessions 0-2 share dedupSpec; 3 is kjtSpec (BatchSize 48, which 256
	// rows/file does not divide); 4 is an unshared dedupSpec control.
	specs := []reader.Spec{dedupSpec(), dedupSpec(), dedupSpec(), kjtSpec(), dedupSpec()}
	share := []bool{true, true, true, true, false}

	wantEnc := make([][][]byte, len(specs))
	wantStats := make([]reader.Stats, len(specs))
	for i, spec := range specs {
		wantEnc[i], wantStats[i] = serialReference(t, env, spec)
	}

	gotEnc := make([][][]byte, len(specs))
	gotStats := make([]dpp.SessionStats, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: share[i]})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *dpp.Session) {
			defer wg.Done()
			for {
				b, err := sess.Next(context.Background())
				if err == io.EOF {
					gotStats[i] = sess.Stats()
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				if err := b.Encode(&buf); err != nil {
					errs[i] = err
					return
				}
				gotEnc[i] = append(gotEnc[i], buf.Bytes())
			}
		}(i, sess)
	}
	wg.Wait()

	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if len(gotEnc[i]) != len(wantEnc[i]) {
			t.Fatalf("session %d produced %d batches, serial reference %d", i, len(gotEnc[i]), len(wantEnc[i]))
		}
		for bi := range wantEnc[i] {
			if !bytes.Equal(gotEnc[i][bi], wantEnc[i][bi]) {
				t.Fatalf("session %d batch %d differs from serial reference", i, bi)
			}
		}
		// Egress is real for every session, hits or not.
		if got, want := gotStats[i].Reader.BatchesProduced, wantStats[i].BatchesProduced; got != want {
			t.Fatalf("session %d BatchesProduced = %d, serial reference %d", i, got, want)
		}
		if got, want := gotStats[i].Reader.SentBytes, wantStats[i].SentBytes; got != want {
			t.Fatalf("session %d SentBytes = %d, serial reference %d", i, got, want)
		}
	}

	// The aligned trio decodes every file exactly once between them: with
	// no eviction possible at this scale, misses across the three equal
	// the file count and their decoded rows sum to one serial scan.
	var trioHits, trioMisses, trioRows int64
	for i := 0; i < 3; i++ {
		st := gotStats[i]
		if got := st.Cache.Hits + st.Cache.Misses; got != nFiles {
			t.Fatalf("session %d cache lookups = %d, want %d (one per file)", i, got, nFiles)
		}
		trioHits += st.Cache.Hits
		trioMisses += st.Cache.Misses
		trioRows += st.Reader.RowsDecoded
	}
	if trioMisses != nFiles || trioHits != 2*nFiles {
		t.Fatalf("trio cache traffic hits=%d misses=%d, want %d/%d", trioHits, trioMisses, 2*nFiles, nFiles)
	}
	if trioRows != wantStats[0].RowsDecoded {
		t.Fatalf("trio decoded %d rows, want %d (each file decoded once)", trioRows, wantStats[0].RowsDecoded)
	}
	// The unshared control never touches the cache.
	if c := gotStats[4].Cache; c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("unshared session reported cache traffic %+v", c)
	}
	// The misaligned session looks every file up too, at the carry it
	// enters it with; nobody else has its fingerprint, so each is a miss.
	if c := gotStats[3].Cache; c.Hits != 0 || c.Misses != nFiles {
		t.Fatalf("misaligned session cache traffic %+v, want %d misses (one lookup per file)", c, nFiles)
	}

	if st := svc.Stats().Cache; st.Hits != trioHits || st.Evictions != 0 {
		t.Fatalf("service cache stats %+v, want %d hits, 0 evictions", st, trioHits)
	}
}

// TestSharedSessionEvictionPressure runs ShareScans sessions against a
// cache far smaller than the table, so entries are evicted mid-scan, and
// pins that post-eviction re-reads still match the uncached reference.
func TestSharedSessionEvictionPressure(t *testing.T) {
	env := newTestEnv(t, 200)
	spec := dedupSpec()
	wantEnc, _ := serialReference(t, env, spec)

	// Budget two files' worth of decoded batches: the scan itself evicts.
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Skip("need at least 3 files for eviction pressure")
	}
	one, err := r.ScanFile(context.Background(), files[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, env, dpp.Config{ScanCacheBytes: 2 * one.MemBytes()})

	for pass := 0; pass < 2; pass++ {
		sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true})
		if err != nil {
			t.Fatal(err)
		}
		gotEnc := drainSession(t, sess)
		if len(gotEnc) != len(wantEnc) {
			t.Fatalf("pass %d produced %d batches, reference %d", pass, len(gotEnc), len(wantEnc))
		}
		for bi := range wantEnc {
			if !bytes.Equal(gotEnc[bi], wantEnc[bi]) {
				t.Fatalf("pass %d batch %d differs from reference", pass, bi)
			}
		}
	}
	st := svc.Stats().Cache
	if st.Evictions == 0 {
		t.Fatal("expected evictions under memory pressure")
	}
	if st.Bytes > 2*one.MemBytes() {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, 2*one.MemBytes())
	}
	// Both passes completed byte-identically even though pass 2's early
	// files had been evicted by pass 1's tail — they were simply
	// recomputed (and counted as misses again).
	if st.Misses <= int64(len(files)) {
		t.Fatalf("misses = %d, want > %d (evicted entries recomputed)", st.Misses, len(files))
	}
}

// TestShareScansMisalignedFallbackAccounting pins a misaligned ShareScans
// scan's accounting: when the batch size does not divide rows-per-file,
// every file is still looked up exactly once — cut at the carry the scan
// enters it with — so a repeat session with the same spec over the same
// files reuses every in-file batch and decodes nothing, converting only
// the batches that straddle a file boundary.
func TestShareScansMisalignedFallbackAccounting(t *testing.T) {
	env := newTestEnv(t, 200)
	spec := kjtSpec() // BatchSize 48; files land with 256 rows each

	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Skip("need a multi-file partition for misaligned boundaries")
	}
	nFiles := int64(len(files))

	// Replay the carry arithmetic against the store (the service's cache
	// sees no traffic from the setup): files must be entered mid-batch, or
	// this is the aligned case again.
	probe, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	carry, carried := 0, 0
	for _, f := range files {
		samples, _, _, err := probe.FillFile(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		if carry > 0 {
			carried++
		}
		carry = (carry + len(samples)) % spec.BatchSize
	}
	if carried == 0 {
		t.Fatalf("degenerate alignment: all %d files are entered on a batch boundary", len(files))
	}

	wantEnc, wantStats := serialReference(t, env, spec)

	svc := newService(t, env, dpp.Config{})

	var stats [2]dpp.SessionStats
	for pass := 0; pass < 2; pass++ {
		sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true})
		if err != nil {
			t.Fatal(err)
		}
		gotEnc := drainSession(t, sess)
		if len(gotEnc) != len(wantEnc) {
			t.Fatalf("pass %d produced %d batches, reference %d", pass, len(gotEnc), len(wantEnc))
		}
		for bi := range wantEnc {
			if !bytes.Equal(gotEnc[bi], wantEnc[bi]) {
				t.Fatalf("pass %d batch %d differs from serial reference", pass, bi)
			}
		}
		stats[pass] = sess.Stats()
	}

	// One lookup per file on each pass: all misses cold, all hits warm.
	if c := stats[0].Cache; c.Misses != nFiles || c.Hits != 0 {
		t.Fatalf("pass 0 cache traffic %+v, want %d misses / 0 hits", c, nFiles)
	}
	if c := stats[1].Cache; c.Hits != nFiles || c.Misses != 0 {
		t.Fatalf("pass 1 cache traffic %+v, want %d hits / 0 misses", c, nFiles)
	}
	// The cold pass does exactly a serial scan's work; the warm pass reads
	// and decodes nothing. Egress is real on both.
	if got, want := counters(stats[0].Reader), counters(wantStats); got != want {
		t.Fatalf("pass 0 counters %v, serial reference %v", got, want)
	}
	if st := stats[1].Reader; st.RowsDecoded != 0 || st.ReadBytes != 0 {
		t.Fatalf("repeat pass decoded %d rows and read %d bytes, want 0 / 0", st.RowsDecoded, st.ReadBytes)
	}
	for pass, st := range stats {
		if st.Reader.BatchesProduced != wantStats.BatchesProduced || st.Reader.SentBytes != wantStats.SentBytes {
			t.Fatalf("pass %d egress (%d batches, %d bytes), reference (%d, %d)", pass,
				st.Reader.BatchesProduced, st.Reader.SentBytes, wantStats.BatchesProduced, wantStats.SentBytes)
		}
	}
}

// TestShareScansRejectedWhenCacheDisabled: a service built with the scan
// cache disabled refuses ShareScans sessions instead of silently running
// them unshared.
func TestShareScansRejectedWhenCacheDisabled(t *testing.T) {
	env := newTestEnv(t, 10)
	svc := newService(t, env, dpp.Config{ScanCacheBytes: -1})
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), ShareScans: true}); err == nil {
		t.Fatal("expected error: ShareScans with disabled cache")
	}
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec()})
	if err != nil {
		t.Fatalf("unshared session must still open: %v", err)
	}
	sess.Close()
}

// TestSessionDrainAccounting is the session-era Drain contract (the old
// reader.Tier.Drain): draining a multi-reader session while discarding
// every batch yields the same batch count and deterministic counters as
// one serial scan over the whole file list (the queue model's reference
// at every worker count), without retaining any batch.
func TestSessionDrainAccounting(t *testing.T) {
	env := newTestEnv(t, 40)
	svc := newService(t, env, dpp.Config{})
	spec := dedupSpec()

	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	var wantBatches int
	var wantStats reader.Stats
	{
		r, err := reader.NewReader(env.store, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background(), files, func(*reader.Batch) error {
			wantBatches++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		wantStats = r.Stats()
	}

	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, Readers: workers, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	for {
		_, err := sess.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		drained++
	}
	if drained != wantBatches || drained == 0 {
		t.Fatalf("drained %d batches, want %d (nonzero)", drained, wantBatches)
	}
	if got, want := counters(sess.Stats().Reader), counters(wantStats); got != want {
		t.Fatalf("drained stats counters %v, want %v", got, want)
	}
}
