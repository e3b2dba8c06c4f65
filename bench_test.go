// Benchmarks regenerating every table and figure of the paper's
// evaluation section, one testing.B target per experiment, plus
// micro-benchmarks for the hot paths (IKJT conversion, jagged index
// select, DWRF IO, collectives). Run:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports its headline metric(s) via b.ReportMetric
// so `-bench` output reads like the paper's results. The experiment
// implementations are in internal/experiments; cmd/recd-bench prints the
// full row sets.
package repro_test

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/experiments"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// runExperiment executes one registered experiment per iteration and
// reports the requested cells as benchmark metrics.
func runExperiment(b *testing.B, id string, metrics map[string][2]string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.Run(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, addr := range metrics {
		found := false
		for _, row := range res.Rows {
			for _, c := range row.Values {
				if row.Label == addr[0] && c.Name == addr[1] {
					b.ReportMetric(c.Value, name)
					found = true
				}
			}
		}
		if !found {
			b.Fatalf("%s: missing %s/%s", id, addr[0], addr[1])
		}
	}
}

// BenchmarkFig3SessionHistogram regenerates Figure 3 (samples/session in
// a partition vs in a 4096 batch).
func BenchmarkFig3SessionHistogram(b *testing.B) {
	runExperiment(b, "fig3", map[string][2]string{
		"partition_S": {"partition", "mean_s"},
		"batch_S":     {"batch4096 (interleaved)", "mean_s"},
	})
}

// BenchmarkFig4Duplication regenerates Figure 4 (exact/partial duplicate
// percentages; paper 80.0/83.9, byte-weighted 81.6/89.4).
func BenchmarkFig4Duplication(b *testing.B) {
	runExperiment(b, "fig4", map[string][2]string{
		"exact_pct":   {"all features (mean)", "exact"},
		"partial_pct": {"all features (mean)", "partial"},
	})
}

// BenchmarkFig7EndToEnd regenerates Figure 7 (trainer/reader/storage
// gains; paper RM1 2.48/1.79/3.71x).
func BenchmarkFig7EndToEnd(b *testing.B) {
	runExperiment(b, "fig7", map[string][2]string{
		"rm1_trainer_x": {"RM1", "trainer"},
		"rm1_reader_x":  {"RM1", "reader"},
		"rm1_storage_x": {"RM1", "storage"},
	})
}

// BenchmarkFig8IterationBreakdown regenerates Figure 8 (A2A roughly
// halves; totals drop 23-44%).
func BenchmarkFig8IterationBreakdown(b *testing.B) {
	runExperiment(b, "fig8", map[string][2]string{
		"rm1_recd_total": {"RM1 recd", "total"},
		"rm1_recd_a2a":   {"RM1 recd", "a2a"},
		"rm1_base_a2a":   {"RM1 baseline", "a2a"},
	})
}

// BenchmarkFig9Ablation regenerates Figure 9 (paper ladder 1.0 / 1.0 /
// 1.34 / 2.42 / 2.48).
func BenchmarkFig9Ablation(b *testing.B) {
	r, ok := experiments.ByID("fig9")
	if !ok {
		b.Fatal("fig9 not registered")
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.Run(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, row := range res.Rows {
		b.ReportMetric(row.Values[0].Value, row.Label[:3]+string(rune('0'+i))+"_x")
	}
}

// BenchmarkTable2ResourceUtilization regenerates Table 2 (QPS, memory
// utilization, compute efficiency).
func BenchmarkTable2ResourceUtilization(b *testing.B) {
	runExperiment(b, "table2", map[string][2]string{
		"recd_qps_x":   {"recd", "norm_qps"},
		"recd_maxmem":  {"recd", "max_mem"},
		"base_maxmem":  {"baseline", "max_mem"},
		"recd_eff_x":   {"recd", "comp_eff"},
		"batch3_qps_x": {"recd + 3x batch", "norm_qps"},
	})
}

// BenchmarkTable3ReaderBytes regenerates Table 3 (read/send bytes; paper
// 538/837 -> 179/837 -> 179/713 GB).
func BenchmarkTable3ReaderBytes(b *testing.B) {
	runExperiment(b, "table3", map[string][2]string{
		"base_read_MB":  {"baseline", "read"},
		"clust_read_MB": {"with cluster (O2)", "read"},
		"ikjt_send_MB":  {"with IKJT (O3/O4)", "send"},
	})
}

// BenchmarkTable4OptimizationSummary regenerates Table 4 (per-optimization
// impacts for RM1).
func BenchmarkTable4OptimizationSummary(b *testing.B) {
	runExperiment(b, "table4", map[string][2]string{
		"o2_compression_x": {"O2 table compression", "value"},
		"trainer_x":        {"O5-O7 trainer throughput", "value"},
	})
}

// BenchmarkFig10ReaderBreakdown regenerates Figure 10 (reader CPU
// fill/convert/process; paper fill -50/-33/-46%).
func BenchmarkFig10ReaderBreakdown(b *testing.B) {
	runExperiment(b, "fig10", map[string][2]string{
		"rm1_base_fill": {"RM1 baseline", "fill"},
		"rm1_recd_fill": {"RM1 recd", "fill"},
	})
}

// BenchmarkScribeSharding regenerates the §6.1 Scribe result (1.50x ->
// 2.25x).
func BenchmarkScribeSharding(b *testing.B) {
	runExperiment(b, "scribe", map[string][2]string{
		"improvement_x": {"improvement", "ratio"},
	})
}

// BenchmarkSingleNode regenerates §6.2 single-node training (2.18x).
func BenchmarkSingleNode(b *testing.B) {
	runExperiment(b, "singlenode", map[string][2]string{
		"speedup_x": {"single-node (8 GPUs)", "speedup"},
	})
}

// BenchmarkDedupeFactorModel regenerates the §4.2 analytic-vs-measured
// sweep.
func BenchmarkDedupeFactorModel(b *testing.B) {
	runExperiment(b, "dedupefactor", map[string][2]string{
		"analytic_x": {"d=0.95 S=16.5", "analytic"},
		"measured_x": {"d=0.95 S=16.5", "measured"},
	})
}

// BenchmarkPartialIKJT regenerates the §7 partial-dedup extension.
func BenchmarkPartialIKJT(b *testing.B) {
	runExperiment(b, "partial", map[string][2]string{
		"exact_x":   {"exact IKJT", "factor"},
		"partial_x": {"partial IKJT", "factor"},
	})
}

// BenchmarkDownsampling regenerates the §7 per-session downsampling
// argument.
func BenchmarkDownsampling(b *testing.B) {
	runExperiment(b, "downsample", map[string][2]string{
		"per_sample_S":  {"per-sample 50%", "S"},
		"per_session_S": {"per-session 50%", "S"},
	})
}

// BenchmarkAccuracyImpact regenerates the §6.2 accuracy observation
// (clustering improves generalization by avoiding repeated sparse
// updates on duplicate values).
func BenchmarkAccuracyImpact(b *testing.B) {
	runExperiment(b, "accuracy", map[string][2]string{
		"interleaved_auc": {"interleaved (baseline)", "auc"},
		"clustered_auc":   {"clustered (O2)", "auc"},
	})
}

// --- Micro-benchmarks for the hot paths ---

func benchBatch(b *testing.B, sessions, batch int) (*datagen.Schema, []tensor.Jagged, []string) {
	b.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	if len(samples) < batch {
		b.Fatalf("only %d samples for batch %d", len(samples), batch)
	}
	keys := schema.SparseKeys()
	tensors := make([]tensor.Jagged, len(keys))
	for fi := range keys {
		lists := make([][]tensor.Value, batch)
		for i := 0; i < batch; i++ {
			lists[i] = samples[i].Sparse[fi]
		}
		tensors[fi] = tensor.NewJagged(lists)
	}
	return schema, tensors, keys
}

// BenchmarkIKJTConversion measures the reader-side dedup cost the paper
// reports as a 21% convert-time increase (§6.3).
func BenchmarkIKJTConversion(b *testing.B) {
	_, tensors, keys := benchBatch(b, 200, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.DedupJagged(keys[:3], tensors[:3]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJaggedIndexSelect measures the O6 primitive in its steady-state
// form: a trainer expanding every batch reuses one destination buffer via
// JaggedIndexSelectInto, so the expansion loop runs allocation-free.
func BenchmarkJaggedIndexSelect(b *testing.B) {
	_, tensors, keys := benchBatch(b, 200, 1024)
	ik, err := tensor.DedupJagged(keys[:3], tensors[:3])
	if err != nil {
		b.Fatal(err)
	}
	dd, _ := ik.Deduped(keys[0])
	inv := ik.InverseLookup()
	var dst tensor.Jagged
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tensor.JaggedIndexSelectInto(dst, dd, inv)
	}
}

// BenchmarkJaggedIndexSelectAlloc measures the one-shot form that
// allocates a fresh result per call.
func BenchmarkJaggedIndexSelectAlloc(b *testing.B) {
	_, tensors, keys := benchBatch(b, 200, 1024)
	ik, err := tensor.DedupJagged(keys[:3], tensors[:3])
	if err != nil {
		b.Fatal(err)
	}
	dd, _ := ik.Deduped(keys[0])
	inv := ik.InverseLookup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.JaggedIndexSelect(dd, inv)
	}
}

// BenchmarkIKJTToKJTRoundTrip measures full expansion.
func BenchmarkIKJTToKJTRoundTrip(b *testing.B) {
	_, tensors, keys := benchBatch(b, 200, 1024)
	ik, err := tensor.DedupJagged(keys, tensors)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ik.ToKJT()
	}
}

// BenchmarkDWRFWriteClustered measures columnar encode+compress of a
// session-clustered table, per row and in stored bytes per row.
func BenchmarkDWRFWriteClustered(b *testing.B) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	var stored int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := dwrf.NewFileWriter(schema, dwrf.WriterOptions{StripeRows: 128})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteRows(samples); err != nil {
			b.Fatal(err)
		}
		data, _, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		stored = len(data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/row")
	b.ReportMetric(float64(stored)/float64(len(samples)), "B/row")
}

// BenchmarkReaderTier measures the fill→convert→process pipeline.
func BenchmarkReaderTier(b *testing.B) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	files, _ := catalog.AllFiles("t")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reader.NewReader(store, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(context.Background(), files, func(*reader.Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSession measures the dpp session API over the exact
// scan BenchmarkReaderTier runs through a direct Reader — the iterator
// overhead (service admission, one worker goroutine, a bounded-channel
// hop per batch) must stay within noise of the callback path.
func BenchmarkServiceSession(b *testing.B) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := svc.Open(ctx, dpp.Spec{Spec: spec, Buffer: 1})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := sess.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		sess.Close()
	}
}

// BenchmarkRemoteSession measures the same scan as
// BenchmarkServiceSession pulled through the dppnet TCP transport on
// loopback: dial + handshake, framed batch encode/decode, credit
// returns, trailing stats. scripts/bench.sh gates the overhead versus
// BenchmarkServiceSession at BENCH_MAX_REMOTE_OVERHEAD_PCT (default
// 25%), computed from the same run so host speed cancels out.
func BenchmarkRemoteSession(b *testing.B) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := dppnet.NewServer(svc)
	go srv.Serve(ln)
	defer srv.Close()
	client := dppnet.NewClient(ln.Addr().String())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := client.Open(ctx, dpp.Spec{Spec: spec, Buffer: 1})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := rs.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		rs.Close()
	}
}

// benchTwoSessions measures the aggregate cost of two concurrent
// same-spec sessions scanning one table, with or without cross-session
// scan sharing. Each iteration opens a fresh service, so the shared case
// always measures "two sessions, one decode" (single-flight coalescing +
// cache reuse), never a pre-warmed cache.
func benchTwoSessions(b *testing.B, share bool) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	// 256 rows per file so files align to the 256-row batch: every file
	// boundary is a batch boundary and the whole scan is shareable.
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 256, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for s := 0; s < 2; s++ {
			sess, err := svc.Open(ctx, dpp.Spec{Spec: spec, Buffer: 1, ShareScans: share})
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(s int, sess *dpp.Session) {
				defer wg.Done()
				for {
					_, err := sess.Next(ctx)
					if err == io.EOF {
						return
					}
					if err != nil {
						errs[s] = err
						return
					}
				}
			}(s, sess)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		svc.Close()
	}
}

// BenchmarkSharedSessions and BenchmarkUnsharedSessions are the
// cross-session scan-sharing headline pair: two jobs with equal specs
// over one table, batches memoized via the service ScanCache versus
// decoded twice. scripts/bench.sh gates the unshared/shared ns/op ratio
// (aggregate throughput gain) at BENCH_MIN_SHARED_RATIO, default 1.5.
func BenchmarkSharedSessions(b *testing.B)   { benchTwoSessions(b, true) }
func BenchmarkUnsharedSessions(b *testing.B) { benchTwoSessions(b, false) }

// benchShardedFleet measures several epochs of one trainer-shaped
// consumer over k preprocessing shards on loopback, with each shard's
// ScanCache deliberately budgeted at 3/4 of the table's decoded size
// (nominally: 3/4 of the file count times the first file's scan, which
// comes to about 2/3 of the decoded bytes). One shard therefore cannot
// hold the table: it keeps the 8 of 16 files that fit — cachecore stops
// evicting once it re-misses what it evicted, so it does not thrash —
// and re-decodes the other 8 every epoch, while two shards' summed
// capacity fits all 16 when routing splits them evenly, so epochs after
// the first stream from the fleet's partitioned cache. (Ports are
// kernel-chosen, so routing varies per iteration; a lopsided split
// overcommits one shard, which then also keeps what fits.) That makes
// this pair the capacity headline scripts/bench.sh gates with
// BENCH_MIN_SHARD_SCALING (Fleet1 ns/op ÷ Fleet2 ns/op): the win is the
// fleet's additive cache — all of the table against the part one shard
// holds — which survives the 1-CPU CI runner where parallel-decode wins
// cannot.
func benchShardedFleet(b *testing.B, shards int) {
	spec, startFleet := fleetFixture(b, shards)
	ctx := context.Background()
	const epochs = 5
	b.ResetTimer()
	// Each iteration stands up a fresh, cold fleet: the measured unit is
	// "cold fleet, 5 epochs", independent of b.N — cache state must not
	// leak between iterations or the 1-vs-2-shard ratio would depend on
	// how long the harness happens to run each side.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, shutdown := startFleet()
		b.StartTimer()
		for e := 0; e < epochs; e++ {
			sess, err := fleet.Open(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, err := sess.Next(ctx)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			sess.Close()
		}
		b.StopTimer()
		shutdown()
		b.StartTimer()
	}
}

// fleetFixture lands the fleet benchmarks' table and returns the session
// spec over it and a function that stands up a fresh, cold fleet of the
// given shard count, budgeted as benchShardedFleet describes, with the
// function that shuts it down.
func fleetFixture(b *testing.B, shards int) (dpp.Spec, func() (*dppshard.Fleet, func())) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 300, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	// 256 rows per file so files align to the 256-row batch: the whole
	// scan is shareable and every file is cacheable on its owning shard.
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 256, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	files, err := catalog.AllFiles("t")
	if err != nil {
		b.Fatal(err)
	}
	r, err := reader.NewReader(store, spec)
	if err != nil {
		b.Fatal(err)
	}
	one, err := r.ScanFile(context.Background(), files[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	budget := one.MemBytes() * int64(len(files)) * 3 / 4

	return dpp.Spec{Spec: spec, Files: files, Buffer: 1, ShareScans: true}, func() (*dppshard.Fleet, func()) {
		var closers []func()
		addrs := make([]string, 0, shards)
		for i := 0; i < shards; i++ {
			svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog, ScanCacheBytes: budget})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := dppnet.NewServer(svc)
			go srv.Serve(ln)
			closers = append(closers, func() { srv.Close(); svc.Close() })
			addrs = append(addrs, ln.Addr().String())
		}
		fleet, err := dppshard.New(dppshard.Config{Addrs: addrs})
		if err != nil {
			b.Fatal(err)
		}
		return fleet, func() {
			for _, c := range closers {
				c()
			}
		}
	}
}

// BenchmarkShardedFleet1/2/4 are the sharded-preprocessing capacity
// ladder: identical table, identical merged stream, per-shard cache
// budget fixed at 3/4 of the table — shard count is the only axis.
func BenchmarkShardedFleet1(b *testing.B) { benchShardedFleet(b, 1) }
func BenchmarkShardedFleet2(b *testing.B) { benchShardedFleet(b, 2) }
func BenchmarkShardedFleet4(b *testing.B) { benchShardedFleet(b, 4) }

// BenchmarkFleetFirstBatch is how long a trainer waits for its first batch
// from a cold two-shard fleet: Open's dials and handshakes, then the shard
// that owns the first file reading its footer and the two stripes the batch
// lies in, converting it and shipping the frame — not the file. ms/op is
// the per-layer number under the ladder's fleet_overcommit
// first_batch_p50_ms.
func BenchmarkFleetFirstBatch(b *testing.B) {
	spec, startFleet := fleetFixture(b, 2)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, shutdown := startFleet()
		b.StartTimer()
		sess, err := fleet.Open(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Next(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sess.Close()
		shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkSharedFirstBatch is how long the second, third and fourth of four
// ShareScans sessions opened together on a cold service wait for their first
// batch. All four ask for the first file's scan at once; one computes it and
// the others follow its log, so each is served the file's first batch when
// the compute cuts it — after two of the file's eight stripes, not the eight.
// first_batch_ms is the mean over sessions 2–4, from the moment the four are
// opened; ns/op is the whole timed region (the four opens and the three
// first batches).
func BenchmarkSharedFirstBatch(b *testing.B) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	// 1024-row files of eight 128-row stripes: a 256-row batch is a quarter
	// of a file.
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 1024, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := dpp.Spec{Spec: reader.Spec{
		Table: "t", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}, Buffer: 1, ShareScans: true}
	ctx := context.Background()
	var waited time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		opened := time.Now()
		sessions := make([]*dpp.Session, 4)
		for s := range sessions {
			if sessions[s], err = svc.Open(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
		for _, sess := range sessions[1:] {
			if _, err := sess.Next(ctx); err != nil {
				b.Fatal(err)
			}
			waited += time.Since(opened)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(waited.Microseconds())/1e3/float64(3*b.N), "first_batch_ms")
}

// benchStalledConsumer measures one session drained by a consumer that
// stalls briefly after each of the first half of its batches (a trainer
// warming up / periodically busy) and then drains flat out. The static
// variant keeps the spec's 4 workers throughout; the autoscaled variant
// starts identically but lets the service's AutoScaler resize the pool
// from the observed worker/consumer starvation — down while the consumer
// stalls, back up when it speeds up.
func benchStalledConsumer(b *testing.B, autoscale bool) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	// Small files (64 rows) so the scan is a long work queue: resizes
	// land mid-stream and a wrongly-sized pool has room to cost time.
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 64, Writer: dwrf.WriterOptions{StripeRows: 64}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 64,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	cfg := dpp.Config{Backend: store, Catalog: catalog}
	if autoscale {
		cfg.AutoScale = &dpp.AutoScalerConfig{
			MinReaders: 1, MaxReaders: 4,
			Interval: time.Millisecond,
		}
	}
	svc, err := dpp.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var scaleEvents int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := svc.Open(ctx, dpp.Spec{Spec: spec, Readers: 4, Buffer: 1})
		if err != nil {
			b.Fatal(err)
		}
		consumed := 0
		for {
			_, err := sess.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			consumed++
			if consumed%2 == 1 && consumed < 12 {
				time.Sleep(500 * time.Microsecond) // the trainer is busy
			}
		}
		st := sess.Stats().Scheduler
		scaleEvents += st.ScaleUps + st.ScaleDowns
		sess.Close()
	}
	b.ReportMetric(float64(scaleEvents)/float64(b.N), "scale_events/op")
}

// BenchmarkStaticStalledConsumer and BenchmarkAutoscaledStalledConsumer
// are the scheduling headline pair: scripts/bench.sh gates
// static ns/op ÷ autoscaled ns/op at BENCH_MIN_AUTOSCALE_RATIO. On the
// 1-CPU baseline runner the pool size cannot buy wall time, so this is a
// parity gate (autoscaling ≈ 1.0× static, bounded noise allowance): the
// controller must be free — resizing never stalls the stream — until a
// multicore baseline can gate its real win.
func BenchmarkStaticStalledConsumer(b *testing.B)     { benchStalledConsumer(b, false) }
func BenchmarkAutoscaledStalledConsumer(b *testing.B) { benchStalledConsumer(b, true) }

// BenchmarkTrainStepBaseline and BenchmarkTrainStepRecD measure the
// numeric DLRM step in both modes on identical batches.
func benchTrainStep(b *testing.B, mode trainer.Mode) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 100, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "t", 0, schema, samples,
		dwrf.TableOptions{Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		b.Fatal(err)
	}
	spec := reader.Spec{
		Table: "t", BatchSize: 128,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
	}
	r, err := reader.NewReader(store, spec)
	if err != nil {
		b.Fatal(err)
	}
	files, _ := catalog.AllFiles("t")
	var batches []*reader.Batch
	if err := r.Run(context.Background(), files, func(bb *reader.Batch) error {
		batches = append(batches, bb)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	model, err := trainer.New(trainer.Config{
		EmbDim: 8, DenseIn: 2, BottomHidden: []int{16}, TopHidden: []int{16},
		Features: []trainer.FeatureConfig{
			{Key: "user_seq_0", Pool: trainer.AttentionPool, TableRows: 1 << 10},
			{Key: "user_seq_1", Pool: trainer.SumPool, TableRows: 1 << 10},
			{Key: "user_seq_2", Pool: trainer.SumPool, TableRows: 1 << 10},
			{Key: "user_elem_0", Pool: trainer.MeanPool, TableRows: 1 << 10},
			{Key: "user_elem_1", Pool: trainer.MaxPool, TableRows: 1 << 10},
			{Key: "user_elem_2", Pool: trainer.SumPool, TableRows: 1 << 10},
			{Key: "item_0", Pool: trainer.SumPool, TableRows: 1 << 10},
		},
		Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.TrainStep(batches[i%len(batches)], mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStepBaseline(b *testing.B) { benchTrainStep(b, trainer.Baseline) }
func BenchmarkTrainStepRecD(b *testing.B)     { benchTrainStep(b, trainer.RecD) }

// BenchmarkAllToAll measures the collective cost model itself.
func BenchmarkAllToAll(b *testing.B) {
	top := comm.ZionEX(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.UniformAllToAll(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEndToEnd measures a complete small pipeline run.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	rm := core.RM1()
	rm.GenCfg.Sessions = 30
	rm.BaselineBatch, rm.RecDBatch = 128, 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunRecD(rm); err != nil {
			b.Fatal(err)
		}
	}
}
