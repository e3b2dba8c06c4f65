package dpp_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/landing"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

func followSchema() *datagen.Schema {
	return datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
}

// hourSamples is the deterministic sample block for one live hour: the
// same (hour, sessions, seed) always produces the same rows, so a
// reference run can land byte-identical files.
func hourSamples(schema *datagen.Schema, hour int64, sessions int, seed int64) []datagen.Sample {
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 6, Seed: seed + hour,
	})
	return etl.ClusterBySession(gen.GeneratePartition())
}

// TestFollowMatchesFrozenLocal is the Follow determinism contract (run
// under -race in CI): a session opened with Follow before files land
// observes the landings mid-stream, and after EndFollow its complete
// stream is byte-identical to a cold session opened on the frozen
// publish-order file list.
func TestFollowMatchesFrozenLocal(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 40)
	svc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Following() {
		t.Fatal("follow session does not report Following")
	}

	// Land two live hours while the session tails.
	schema := followSchema()
	total := len(env.samples)
	for _, hour := range []int64{3600, 7200} {
		samples := hourSamples(schema, hour, 25, 1234)
		w, err := landing.NewWriter(landing.Config{
			Store: env.store, Catalog: env.catalog, Table: "tbl", Schema: schema, FlushRows: 96,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(hour, samples...); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		total += len(samples)
	}

	batchSize := dedupSpec().BatchSize
	full := total / batchSize
	var gotEnc [][]byte
	rows := 0
	for len(gotEnc) < full {
		b, err := sess.Next(context.Background())
		if err != nil {
			t.Fatalf("batch %d: %v", len(gotEnc), err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		gotEnc = append(gotEnc, buf.Bytes())
		rows += b.Size
	}
	if st := svc.Stats(); st.Follow.Sessions != 1 || st.Follow.ExtendedFiles == 0 {
		t.Fatalf("follow stats while tailing: %+v", st.Follow)
	}
	sess.EndFollow()
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		gotEnc = append(gotEnc, buf.Bytes())
		rows += b.Size
	}
	if rows != total {
		t.Fatalf("follow stream delivered %d rows, landed %d", rows, total)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Freeze the prefix: the publish-sequence order is exactly the order
	// the Follow session emitted, so a cold session on that explicit
	// file list must produce the identical bytes.
	pubs, err := env.catalog.PublishedFiles("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, len(pubs))
	for i, pf := range pubs {
		files[i] = pf.Path
	}
	cold, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: files})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := drainSession(t, cold)
	if len(gotEnc) != len(wantEnc) || len(wantEnc) == 0 {
		t.Fatalf("follow stream produced %d batches, frozen prefix %d (nonzero)", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("batch %d differs between follow stream and frozen prefix", i)
		}
	}

	svc.Close()
	testutil.WaitForGoroutines(t, before)
}

// TestFollowOpenRejections: Follow does not compose with an explicit
// Files list (a fixed list has no tail).
func TestFollowOpenRejections(t *testing.T) {
	env := newTestEnv(t, 5)
	svc := newService(t, env, dpp.Config{})

	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Follow: true, Files: files}); err == nil ||
		!strings.Contains(err.Error(), "Follow") {
		t.Fatalf("Follow+Files admitted: %v", err)
	}
}

// drainAsync drains a session to the end on its own goroutine; the
// returned func waits for it and hands back the encoded stream.
func drainAsync(sess *dpp.Session) func() ([][]byte, error) {
	var enc [][]byte
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var b *reader.Batch
			if b, err = sess.Next(context.Background()); err != nil {
				if err == io.EOF {
					err = nil
				}
				return
			}
			var buf bytes.Buffer
			if err = b.Encode(&buf); err != nil {
				return
			}
			enc = append(enc, buf.Bytes())
		}
	}()
	return func() ([][]byte, error) {
		<-done
		return enc, err
	}
}

// TestFollowSharedTailersDecodeOnce: Follow composes with ShareScans. Two
// tailers of one table share one decode of the tail even though the lander
// seals files of 48 rows under a batch of 64 — misaligned by construction,
// as an interval-sealed live table is: both reach every file with the same
// carry, so each landed file is one miss and one hit, its rows are decoded
// once between the two, and each stream is byte-identical to a cold
// session over the frozen prefix.
func TestFollowSharedTailersDecodeOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	schema := followSchema()
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 48,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hour 0 lands, both tailers open on it, then four more hours land
	// beside them.
	const hours = 5
	total := 0
	land := func(h int) {
		samples := hourSamples(schema, int64(h)*3600, 16, 900)
		if err := w.Append(int64(h)*3600, samples...); err != nil {
			t.Fatal(err)
		}
		total += len(samples)
	}
	land(0)
	var waits [2]func() ([][]byte, error)
	var tailers [2]*dpp.Session
	for i := range tailers {
		if tailers[i], err = svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Follow: true, ShareScans: true}); err != nil {
			t.Fatal(err)
		}
		waits[i] = drainAsync(tailers[i])
	}
	pubs, err := catalog.PublishedFiles("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := len(pubs)
	for h := 1; h < hours; h++ {
		land(h)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if pubs, err = catalog.PublishedFiles("tbl", 0); err != nil {
		t.Fatal(err)
	}
	files := make([]string, len(pubs))
	for i, pf := range pubs {
		files[i] = pf.Path
	}
	landed := int64(len(files))

	// EndFollow drains what a tailer has observed: wait until both have
	// observed every landing.
	testutil.Eventually(t, func() bool {
		return svc.Stats().Follow.ExtendedFiles == 2*(landed-int64(snapshot))
	}, "both tailers observed all %d files", landed)
	var rowsDecoded int64
	var gotEnc [2][][]byte
	for i, sess := range tailers {
		sess.EndFollow()
		if gotEnc[i], err = waits[i](); err != nil {
			t.Fatalf("tailer %d: %v", i, err)
		}
		st := sess.Stats()
		if got := st.Cache.Hits + st.Cache.Misses; got != landed {
			t.Fatalf("tailer %d made %d cache lookups over %d landed files", i, got, landed)
		}
		rowsDecoded += st.Reader.RowsDecoded
		sess.Close()
	}
	if c := svc.Stats().Cache; c.Misses != landed || c.Hits != landed {
		t.Fatalf("service cache traffic %+v, want %d misses and %d hits (each landed file decoded once, reused once)", c, landed, landed)
	}
	if rowsDecoded != int64(total) {
		t.Fatalf("the two tailers decoded %d rows between them, %d landed", rowsDecoded, total)
	}

	cold, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: files})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := drainSession(t, cold)
	if len(wantEnc) == 0 {
		t.Fatal("the frozen prefix is empty")
	}
	for i := range gotEnc {
		if len(gotEnc[i]) != len(wantEnc) {
			t.Fatalf("tailer %d produced %d batches, frozen prefix %d", i, len(gotEnc[i]), len(wantEnc))
		}
		for bi := range wantEnc {
			if !bytes.Equal(gotEnc[i][bi], wantEnc[bi]) {
				t.Fatalf("tailer %d batch %d differs from the frozen prefix", i, bi)
			}
		}
	}

	svc.Close()
	testutil.WaitForGoroutines(t, before)
}

// TestRetentionInvalidatesTheScanCache is the stale-cache-after-retention
// regression test: DropPartition must purge the dropped files from the
// ScanCache, and a post-drop read of a dropped file must reach the (empty)
// store and fail rather than serve stale cached batches.
func TestRetentionInvalidatesTheScanCache(t *testing.T) {
	schema := followSchema()
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()

	// Land two hours in exact multiples of the batch size so every file
	// seals at 64 rows: all files take the aligned ScanCache path.
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	land := func(hour int64, rows int) {
		samples := hourSamples(schema, hour, rows/4, 77)
		for len(samples) < rows {
			samples = append(samples, samples...)
		}
		if err := w.Append(hour, samples[:rows]...); err != nil {
			t.Fatal(err)
		}
	}
	land(0, 256)    // 4 aligned files
	land(3600, 192) // 3 aligned files
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Warm the ScanCache through a ShareScans drain.
	warm, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	warmEnc := drainSession(t, warm)
	if len(warmEnc) != (256+192)/64 {
		t.Fatalf("warm drain produced %d batches, want %d", len(warmEnc), (256+192)/64)
	}
	sc := svc.Stats().Cache
	if sc.Entries != 7 || sc.Misses != 7 {
		t.Fatalf("scan cache after warm drain: %+v", sc)
	}

	droppedFiles, err := catalog.Files("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := catalog.DropPartition(store, "tbl", 0); err != nil || n != 4 {
		t.Fatalf("DropPartition = %d, %v", n, err)
	}
	sc = svc.Stats().Cache
	if sc.Invalidations != 4 || sc.Entries != 3 {
		t.Fatalf("scan cache after drop: %+v", sc)
	}

	// A read that names a dropped file bypasses the (purged) ScanCache,
	// reaches the store, and fails — it cannot serve stale bytes. The
	// catalog no longer plans the file, so the read is planned from one
	// that has not seen the drop, over the same store.
	stale := lakefs.NewCatalog()
	stale.AddFile("tbl", 0, droppedFiles[0], 64)
	staleSvc, err := dpp.New(dpp.Config{Backend: store, Catalog: stale})
	if err != nil {
		t.Fatal(err)
	}
	defer staleSvc.Close()
	doomed, err := staleSvc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: droppedFiles[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Next(context.Background()); err == nil || err == io.EOF {
		t.Fatalf("read of dropped file returned %v, want a storage error", err)
	}
	doomed.Close()

	// The surviving partition still serves, now entirely from the
	// ScanCache.
	rerun, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	rerunEnc := drainSession(t, rerun)
	if len(rerunEnc) != 192/64 {
		t.Fatalf("post-drop drain produced %d batches, want %d", len(rerunEnc), 192/64)
	}
	sc = svc.Stats().Cache
	if sc.Hits != 3 || sc.Misses != 7 {
		t.Fatalf("post-drop drain recomputed dropped state: %+v", sc)
	}
}

// TestDropFailsInFlightSession: a session mid-stream over a partition
// that retention drops fails cleanly — an error from Next, never a hang
// and never stale rows from a purged cache.
func TestDropFailsInFlightSession(t *testing.T) {
	schema := followSchema()
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := hourSamples(schema, 0, 128, 31)
	for len(samples) < 512 {
		samples = append(samples, samples...)
	}
	if err := w.Append(0, samples[:512]...); err != nil { // 8 aligned files
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sess, err := svc.Open(context.Background(), dpp.Spec{
		Spec: dedupSpec(), Readers: 1, Buffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.DropPartition(store, "tbl", 0); err != nil {
		t.Fatal(err)
	}
	// With Buffer 1 at most a few batches were decoded before the drop;
	// the worker's next file read hits the purged store and fails.
	batches := 1
	var streamErr error
	for {
		_, err := sess.Next(context.Background())
		if err != nil {
			streamErr = err
			break
		}
		batches++
	}
	if streamErr == io.EOF || batches >= 8 {
		t.Fatalf("dropped-partition session delivered %d batches and ended %v, want a mid-stream error", batches, streamErr)
	}
	if err := sess.Close(); err != nil { // Close is clean; the error already surfaced via Next
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SessionErrors == 0 || st.ActiveSessions != 0 {
		t.Fatalf("errored session not retired as an error: %+v", st)
	}
}

// TestChaosLiveTail interleaves, per seed, a landing writer growing the
// table, a Follow session consuming it, and retention drops gated just
// behind the consumer's position — and asserts the full follow stream is
// byte-identical to a cold run over a frozen reference landing with the
// identical flush schedule, and that nothing leaks. The shared case runs two Follow + ShareScans tailers
// in lockstep over the misaligned tail (48-row files, batch 64) and, just
// before each drop, a cold ShareScans scan of the doomed hour alone — so
// its files are cached at two different carries — and asserts the drop
// evicted every one of them: no entry of a dropped file survives at any
// carry, and no tailer is served a stale one.
func TestChaosLiveTail(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		shared bool
	}{{1, false}, {7, false}, {23, false}, {1, true}, {7, true}, {23, true}} {
		seed, name := tc.seed, fmt.Sprintf("seed=%d", tc.seed)
		if tc.shared {
			name += ",shared"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			schema := followSchema()

			const hours = 5
			blocks := make([][]datagen.Sample, hours)
			cum := make([]int, hours) // cumulative rows through hour h
			total := 0
			for h := range blocks {
				blocks[h] = hourSamples(schema, int64(h)*3600, 16, 500+seed)
				total += len(blocks[h])
				cum[h] = total
			}

			// Reference: the same blocks landed by one writer with the same
			// flush schedule into a frozen store — byte-identical files —
			// drained cold in publish order.
			refStore, refCatalog := lakefs.NewStore(), lakefs.NewCatalog()
			refW, err := landing.NewWriter(landing.Config{
				Store: refStore, Catalog: refCatalog, Table: "tbl", Schema: schema, FlushRows: 48,
			})
			if err != nil {
				t.Fatal(err)
			}
			for h := range blocks {
				if err := refW.Append(int64(h)*3600, blocks[h]...); err != nil {
					t.Fatal(err)
				}
			}
			if err := refW.Close(); err != nil {
				t.Fatal(err)
			}
			refSvc, err := dpp.New(dpp.Config{Backend: refStore, Catalog: refCatalog})
			if err != nil {
				t.Fatal(err)
			}
			pubs, err := refCatalog.PublishedFiles("tbl", 0)
			if err != nil {
				t.Fatal(err)
			}
			refFiles := make([]string, len(pubs))
			for i, pf := range pubs {
				refFiles[i] = pf.Path
			}
			refSess, err := refSvc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: refFiles})
			if err != nil {
				t.Fatal(err)
			}
			wantEnc := drainSession(t, refSess)
			refSvc.Close()

			// Chaos run: hour 0 lands, a Follow session opens, then a lander
			// goroutine feeds hours 1..H with seeded jitter while the
			// consumer drops each hour as soon as it is provably consumed.
			store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
			w, err := landing.NewWriter(landing.Config{
				Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 48,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(0, blocks[0]...); err != nil {
				t.Fatal(err)
			}
			svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
			if err != nil {
				t.Fatal(err)
			}
			tailers := make([]*dpp.Session, 1)
			if tc.shared {
				tailers = make([]*dpp.Session, 2)
			}
			for i := range tailers {
				if tailers[i], err = svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Follow: true, ShareScans: tc.shared}); err != nil {
					t.Fatal(err)
				}
			}
			// next pulls one batch from every tailer, in lockstep, so "rows
			// consumed" holds for all of them; the streams must agree.
			next := func() (*reader.Batch, []byte, error) {
				var b *reader.Batch
				var enc []byte
				for i, sess := range tailers {
					var err error
					if b, err = sess.Next(context.Background()); err != nil {
						return nil, nil, err
					}
					var buf bytes.Buffer
					if err := b.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					if i > 0 && !bytes.Equal(buf.Bytes(), enc) {
						t.Fatalf("tailer %d diverged from tailer 0", i)
					}
					enc = buf.Bytes()
				}
				return b, enc, nil
			}
			droppedFiles := map[string]bool{}
			wantInvalidations := 0 // scan-cache entries the drops must evict

			rng := rand.New(rand.NewSource(seed))
			landerDone := make(chan error, 1)
			go func() {
				for h := 1; h < hours; h++ {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					if err := w.Append(int64(h)*3600, blocks[h]...); err != nil {
						landerDone <- err
						return
					}
				}
				landerDone <- w.Close()
			}()

			batchSize := dedupSpec().BatchSize
			full := total / batchSize
			var gotEnc [][]byte
			rows, dropped := 0, 0
			for len(gotEnc) < full {
				b, enc, err := next()
				if err != nil {
					t.Fatalf("batch %d: %v", len(gotEnc), err)
				}
				gotEnc = append(gotEnc, enc)
				rows += b.Size
				// Retention chases the consumer: drop hour h only once every
				// row of hour h+1 has been consumed — by then the workers are
				// provably past hour h's files, so the drop exercises cache
				// invalidation without racing a pending read.
				for dropped < hours-2 && rows >= cum[dropped+1] {
					doomed, err := catalog.Files("tbl", int64(dropped)*3600)
					if err != nil {
						t.Fatal(err)
					}
					if tc.shared {
						alone, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Files: doomed, ShareScans: true})
						if err != nil {
							t.Fatal(err)
						}
						drainSession(t, alone)
						// The tailers cached the hour at the carry they entered
						// it with; the scan of it alone, at carry 0.
						wantInvalidations += len(doomed)
						if dropped > 0 && cum[dropped-1]%batchSize != 0 {
							wantInvalidations += len(doomed)
						}
					}
					if _, err := catalog.DropPartition(store, "tbl", int64(dropped)*3600); err != nil {
						t.Fatal(err)
					}
					for _, f := range doomed {
						droppedFiles[f] = true
					}
					dropped++
				}
			}
			if err := <-landerDone; err != nil {
				t.Fatal(err)
			}
			for _, sess := range tailers {
				sess.EndFollow()
			}
			for {
				b, enc, err := next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				gotEnc = append(gotEnc, enc)
				rows += b.Size
			}
			if rows != total {
				t.Fatalf("chaos follow stream delivered %d rows, landed %d", rows, total)
			}
			for _, sess := range tailers {
				if _, err := sess.Next(context.Background()); err != io.EOF {
					t.Fatalf("a tailer outlived the lockstep stream: %v", err)
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
			}

			if dropped == 0 {
				t.Fatal("chaos schedule never dropped a partition")
			}
			if tc.shared {
				if inv := svc.Stats().Cache.Invalidations; inv != int64(wantInvalidations) || inv <= int64(len(droppedFiles)) {
					t.Fatalf("drops of %d files invalidated %d scan-cache entries, want %d (some files cached at two carries)",
						len(droppedFiles), inv, wantInvalidations)
				}
				for _, e := range svc.ScanCache().Entries() {
					if droppedFiles[e.File] {
						t.Fatalf("dropped file %s is still cached at carry %d", e.File, e.Carry)
					}
				}
			}
			if len(gotEnc) != len(wantEnc) || len(wantEnc) == 0 {
				t.Fatalf("chaos stream produced %d batches, reference %d (nonzero)", len(gotEnc), len(wantEnc))
			}
			for i := range wantEnc {
				if !bytes.Equal(gotEnc[i], wantEnc[i]) {
					t.Fatalf("batch %d differs between chaos follow stream and frozen reference", i)
				}
			}

			svc.Close()
			testutil.WaitForGoroutines(t, before)
		})
	}
}
