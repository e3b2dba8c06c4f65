package landing_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp/landing"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/testutil"
)

func testSchema() *datagen.Schema {
	return datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
}

func genSamples(schema *datagen.Schema, n int, seed int64) []datagen.Sample {
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: n, MeanSamplesPerSession: 1, Seed: seed,
	})
	s := gen.GeneratePartition()
	if len(s) < n {
		panic("generator under-produced")
	}
	return s[:n]
}

// TestWriterCountTrigger: the count half of the batcher seals a file per
// FlushRows appended rows, publishes Put-before-AddFile, and Flush seals
// the remainder on demand.
func TestWriterCountTrigger(t *testing.T) {
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	schema := testSchema()
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, genSamples(schema, 10, 7)...); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.FilesLanded != 2 || st.RowsLanded != 8 || st.BufferedRows != 2 {
		t.Fatalf("after 10 rows at FlushRows=4: %+v", st)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.FilesLanded != 3 || st.RowsLanded != 10 || st.BufferedRows != 0 || st.TimedFlushes != 0 {
		t.Fatalf("after Flush: %+v", st)
	}
	// Every catalogued path holds real bytes (the atomic-publish order),
	// and the publish log is the landing order.
	pubs, err := catalog.PublishedFiles("tbl", 0)
	if err != nil || len(pubs) != 3 {
		t.Fatalf("publish log %v, %v", pubs, err)
	}
	for i, pf := range pubs {
		if _, err := store.Size(pf.Path); err != nil {
			t.Fatalf("catalogued %q has no blob", pf.Path)
		}
		if !strings.Contains(pf.Path, "hour=0/") {
			t.Fatalf("path %q not under hour=0", pf.Path)
		}
		if i > 0 && pubs[i-1].Seq >= pf.Seq {
			t.Fatal("publish log out of order")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterHourAdvanceSeals: a file never spans partitions — rows for a
// new hour seal the old hour's buffer first, whatever its size.
func TestWriterHourAdvanceSeals(t *testing.T) {
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	schema := testSchema()
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, genSamples(schema, 3, 7)...); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3600, genSamples(schema, 2, 8)...); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.FilesLanded != 1 || st.RowsLanded != 3 || st.LastHour != 0 || st.BufferedRows != 2 {
		t.Fatalf("hour advance did not seal: %+v", st)
	}
	if err := w.Close(); err != nil { // Close seals the hour-3600 remainder
		t.Fatal(err)
	}
	st = w.Stats()
	if st.FilesLanded != 2 || st.LastHour != 3600 || st.BufferedRows != 0 {
		t.Fatalf("after Close: %+v", st)
	}
	if fs, err := catalog.Files("tbl", 3600); err != nil || len(fs) != 1 {
		t.Fatalf("hour-3600 partition: %v, %v", fs, err)
	}
}

// TestWriterIntervalTrigger: rows sitting unsealed for a FlushInterval
// are sealed by the timer — and the timer is first-row-relative, so a
// buffer that already sealed by count is not flushed again.
func TestWriterIntervalTrigger(t *testing.T) {
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	schema := testSchema()
	clock := testutil.NewClock(time.Unix(0, 0))
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema,
		FlushRows: 100, FlushInterval: time.Second, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.BlockUntilWaiters(t, 1) // the flusher armed its first tick
	if err := w.Append(0, genSamples(schema, 3, 7)...); err != nil {
		t.Fatal(err)
	}
	// The first tick was armed before the rows arrived, so the gen guard
	// skips it (the rows have not sat a full interval yet); the next tick
	// is armed against the pending buffer and seals it.
	clock.Advance(time.Second)
	clock.BlockUntilWaiters(t, 1)
	clock.Advance(time.Second)
	testutil.Eventually(t, func() bool { return w.Stats().TimedFlushes == 1 },
		"interval flush never fired: %+v", w.Stats())
	st := w.Stats()
	if st.FilesLanded != 1 || st.RowsLanded != 3 || st.BufferedRows != 0 {
		t.Fatalf("after timed flush: %+v", st)
	}
	// An empty buffer arms but never flushes.
	clock.BlockUntilWaiters(t, 1)
	clock.Advance(time.Second)
	clock.BlockUntilWaiters(t, 1)
	if st := w.Stats(); st.TimedFlushes != 1 || st.Flushes != 1 {
		t.Fatalf("timer flushed an empty buffer: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterStickyError: a seal failure wedges the writer — later
// Appends refuse with the same error instead of landing rows out of
// order past a hole — and Close reports it.
func TestWriterStickyError(t *testing.T) {
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	schema := testSchema()
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A sample from a different schema cannot encode.
	alien := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 1, UserElem: 1, Item: 1, Dense: 2, SeqLen: 4, Seed: 1,
	})
	sealErr := w.Append(0, genSamples(alien, 2, 9)...)
	if sealErr == nil {
		t.Fatal("alien samples sealed cleanly")
	}
	if err := w.Append(0, genSamples(schema, 2, 7)...); err == nil || err.Error() != sealErr.Error() {
		t.Fatalf("append after failure = %v, want sticky %v", err, sealErr)
	}
	if st := w.Stats(); st.FilesLanded != 0 {
		t.Fatalf("failed writer landed files: %+v", st)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sticky error")
	}
	if err := w.Append(0, genSamples(schema, 1, 7)...); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestWriterLandJoined: the etl join runs inside the writer — only
// matched feature/event pairs land, with the join's labels.
func TestWriterLandJoined(t *testing.T) {
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	schema := testSchema()
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 8, MeanSamplesPerSession: 2, Seed: 21,
	})
	samples := gen.GeneratePartition()
	feats, events := etl.SplitLogs(samples)
	w, err := landing.NewWriter(landing.Config{
		Store: store, Catalog: catalog, Table: "tbl", Schema: schema, FlushRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.LandJoined(0, feats, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("join surfaced %d samples from %d logged", n, len(samples))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.RowsLanded != int64(n) {
		t.Fatalf("landed %d rows, joined %d", st.RowsLanded, n)
	}
}
