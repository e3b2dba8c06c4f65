package dpp_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/front"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// newChaosEnv lands a partition cut into many small files (64 rows each)
// so a scan is a long queue of work items — resizes land mid-stream, not
// after the fact. Batch size 64 divides the file size (aligned specs);
// 48 does not (misaligned: rows carry across files).
func newChaosEnv(t testing.TB) *testEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 120, MeanSamplesPerSession: 6, Seed: 99,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 64, Writer: dwrf.WriterOptions{StripeRows: 32}}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: store, catalog: catalog, samples: samples}
}

// TestChaosResizeDeterminism is the autoscaling determinism contract,
// and this PR's load-bearing invariant (run under -race in CI): a
// session's batch stream is byte-identical to the serial single-reader
// reference no matter how the worker pool is resized while it drains.
// 68 seeded schedules (17 per spec shape) randomize the initial pool
// size, the buffer depth, the resize cadence, and the resize targets
// across an aligned spec, a misaligned spec (rows carry across files),
// and the same two under ShareScans (whose workers additionally hand the
// carry down the queue's chain while the pool changes under them); every
// stream must match the serial reference byte for byte with identical
// deterministic counters (scheduler stats excepted — they are
// timing-dependent by design), a shared one with exactly one cache lookup
// per file, and every schedule must tear down to zero leaked goroutines.
func TestChaosResizeDeterminism(t *testing.T) {
	env := newChaosEnv(t)

	cases := []struct {
		name  string
		spec  reader.Spec
		share bool
	}{
		{"aligned", dedupSpec(), false},
		{"misaligned", kjtSpec(), false},
		{"sharescans", dedupSpec(), true},
		{"sharescans-misaligned", kjtSpec(), true},
	}
	const seedsPerCase = 17

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantEnc, wantStats := serialReference(t, env, tc.spec)
			files, err := env.catalog.AllFiles(tc.spec.Table)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantEnc) < 8 {
				t.Fatalf("reference scan produced only %d batches; chaos needs a long stream", len(wantEnc))
			}
			for seed := int64(0); seed < seedsPerCase; seed++ {
				before := runtime.NumGoroutine()
				rng := rand.New(rand.NewSource(seed))

				// Fresh service per schedule so ShareScans counters are
				// comparable (cold cache every time) and leak checks are
				// per-schedule.
				svc := newService(t, env, dpp.Config{})
				sess, err := svc.Open(context.Background(), dpp.Spec{
					Spec:       tc.spec,
					Readers:    1 + rng.Intn(4),
					Buffer:     1 + rng.Intn(2),
					ShareScans: tc.share,
				})
				if err != nil {
					t.Fatal(err)
				}

				var gotEnc [][]byte
				nextResize := 1 + rng.Intn(3)
				for {
					b, err := sess.Next(context.Background())
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					var buf bytes.Buffer
					if err := b.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					gotEnc = append(gotEnc, buf.Bytes())
					if len(gotEnc) == nextResize {
						sess.Resize(1 + rng.Intn(6))
						nextResize += 1 + rng.Intn(3)
					}
				}

				if len(gotEnc) != len(wantEnc) {
					t.Fatalf("seed %d produced %d batches, serial reference %d", seed, len(gotEnc), len(wantEnc))
				}
				for i := range wantEnc {
					if !bytes.Equal(gotEnc[i], wantEnc[i]) {
						t.Fatalf("seed %d batch %d differs from serial reference", seed, i)
					}
				}
				st := sess.Stats()
				if tc.share {
					// A shared session's decode counters depend on cache
					// traffic; its egress is the deterministic half.
					if st.Reader.BatchesProduced != wantStats.BatchesProduced ||
						st.Reader.SentBytes != wantStats.SentBytes {
						t.Fatalf("seed %d egress (%d batches, %d bytes) differs from serial (%d, %d)",
							seed, st.Reader.BatchesProduced, st.Reader.SentBytes,
							wantStats.BatchesProduced, wantStats.SentBytes)
					}
					if got := st.Cache.Hits + st.Cache.Misses; got != int64(len(files)) {
						t.Fatalf("seed %d made %d cache lookups over %d files", seed, got, len(files))
					}
				} else if got, want := counters(st.Reader), counters(wantStats); got != want {
					t.Fatalf("seed %d stats counters %v, serial reference %v", seed, got, want)
				}

				svc.Close()
				testutil.WaitForGoroutines(t, before)
			}
		})
	}
}

// TestResizeSemantics pins the Resize contract edges: clamping below 1,
// idempotent same-size calls, calls after the session ended, and that a
// ShareScans session resizes like any other.
func TestResizeSemantics(t *testing.T) {
	env := newChaosEnv(t)
	svc := newService(t, env, dpp.Config{})

	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Resize(0); got != 1 {
		t.Fatalf("Resize(0) = %d, want clamp to 1", got)
	}
	if got := sess.Resize(-3); got != 1 {
		t.Fatalf("Resize(-3) = %d, want clamp to 1", got)
	}
	if got := sess.Resize(4); got != 4 {
		t.Fatalf("Resize(4) = %d", got)
	}
	if got := sess.Resize(4); got != 4 {
		t.Fatalf("repeat Resize(4) = %d", got)
	}
	st := sess.Stats().Scheduler
	// 2→1 (clamped), 1→4: one down, one up; the no-ops count nothing.
	if st.ScaleUps != 1 || st.ScaleDowns != 1 || st.Workers != 4 {
		t.Fatalf("scheduler stats after resizes: %+v", st)
	}
	sess.Close()
	if got := sess.Resize(8); got != 4 {
		t.Fatalf("Resize after Close = %d, want frozen pool size 4", got)
	}

	shared, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), ShareScans: true, Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	if st := shared.Stats().Scheduler; st.Workers != 3 {
		t.Fatalf("ShareScans session opened with %d workers, want its Readers: 3", st.Workers)
	}
	if got := shared.Resize(5); got != 5 {
		t.Fatalf("ShareScans Resize(5) = %d", got)
	}
	if st := shared.Stats().Scheduler; st.Workers != 5 || st.ScaleUps != 1 || st.ScaleDowns != 0 {
		t.Fatalf("ShareScans scheduler stats: %+v", st)
	}

	if got := svc.Stats().Scheduler; got.ScaleUps != 2 || got.ScaleDowns != 1 {
		t.Fatalf("service scale counters %+v, want 2 up / 1 down", got)
	}
}

// TestAutoscaleScalesDownStalledConsumer: with the service autoscaler on
// and a consumer that never pulls, consumer stall dominates every
// interval and the pool steps down to MinReaders.
func TestAutoscaleScalesDownStalledConsumer(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newChaosEnv(t)
	svc := newService(t, env, dpp.Config{
		AutoScale: &dpp.AutoScalerConfig{
			MinReaders: 1, MaxReaders: 8,
			Interval: 2 * time.Millisecond,
		},
	})
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Readers: 4, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One pull proves the stream is live; afterwards the consumer stalls,
	// the output buffer stays full, and the merge parks on it.
	if _, err := sess.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, func() bool { return sess.Stats().Scheduler.Workers == 1 },
		"pool scaled down to MinReaders (at %d)", sess.Stats().Scheduler.Workers)
	st := sess.Stats().Scheduler
	if st.ScaleDowns < 3 || st.ConsumerStall == 0 {
		t.Fatalf("expected >=3 scale-downs with consumer stall, got %+v", st)
	}
	sess.Close()
	svc.Close()
	testutil.WaitForGoroutines(t, before)
}

// TestAutoscaleScalesUpStarvedMerge: a consumer pulling flat-out keeps
// the merge starved for fill results, so the autoscaler grows the pool
// from 1 toward MaxReaders mid-scan — and the stream stays equal to the
// serial reference while it happens. A cold ShareScans session is the same
// pool under the same controller: behind a front.Governor it registers
// with the arbiter, its starved-merge bids are granted and actuated, and
// it leaves arbitration when it releases.
func TestAutoscaleScalesUpStarvedMerge(t *testing.T) {
	env := newChaosEnv(t)
	wantEnc, _ := serialReference(t, env, dedupSpec())

	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			cfg := dpp.Config{
				AutoScale: &dpp.AutoScalerConfig{
					MinReaders: 1, MaxReaders: 4,
					Interval:  time.Millisecond,
					Threshold: 200 * time.Microsecond,
				},
			}
			var gov *front.Governor
			if shared {
				gov = front.NewGovernor(front.GovernorConfig{Budget: 4})
				cfg.Arbiter = gov
			}
			svc := newService(t, env, cfg)
			var maxWorkers int
			var gotEnc [][]byte
			sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec(), Readers: 1, Buffer: 1, ShareScans: shared, Tenant: "team-a"})
			if err != nil {
				t.Fatal(err)
			}
			if gov != nil {
				if st := gov.Stats(); len(st.Tenants) != 1 || st.Tenants[0].Tenant != "team-a" || st.Tenants[0].Sessions != 1 {
					t.Fatalf("open ShareScans session is not registered with the arbiter: %+v", st)
				}
			}
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
				if w := sess.Stats().Scheduler.Workers; w > maxWorkers {
					maxWorkers = w
				}
			}
			if len(gotEnc) != len(wantEnc) {
				t.Fatalf("autoscaled session produced %d batches, serial reference %d", len(gotEnc), len(wantEnc))
			}
			for i := range wantEnc {
				if !bytes.Equal(gotEnc[i], wantEnc[i]) {
					t.Fatalf("batch %d differs from serial reference under autoscaling", i)
				}
			}
			if maxWorkers < 2 {
				st := sess.Stats().Scheduler
				t.Fatalf("pool never grew past 1 worker (scheduler %+v)", st)
			}
			if gov != nil {
				if st := gov.Stats(); len(st.Tenants) != 0 || st.Rebalances == 0 {
					t.Fatalf("released session still holds a share, or no bid was ever arbitrated: %+v", st)
				}
			}
		})
	}
}
