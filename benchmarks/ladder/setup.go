package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
)

// The table every workload scans. The sizes are fixed here, not flags:
// later changes are compared on exactly this data shape.
const (
	tableName   = "train"
	meanSamples = 16.5
	batchSize   = 256
	rowsPerFile = 1024
	stripeRows  = 128
	chunkRows   = 256 // one live_tail landing = one sealed file = one batch
)

// Variables only so the tests can shrink the run; nothing else sets them.
var (
	tableSessions = 1000 // ~16.5k rows, 17 files
	setupRepeats  = 3    // set-up runs this often per invocation; setup_s is the median
)

// oracle is what a serial reader.Run over (spec, files) produced: the
// reference every workload's verified pass must reproduce byte for byte.
type oracle struct {
	Rows, Batches int
	Digest        [sha256.Size]byte
	// DecodedBytes sums Batch.WireBytes, the in-memory size the
	// ScanCache charges for the table; EgressBytes is Stats.SentBytes.
	DecodedBytes int64
	EgressBytes  int64
	Wall         time.Duration
}

// lastBatchRows is the size of the final, possibly short, batch.
func (o oracle) lastBatchRows() int {
	if r := o.Rows % batchSize; r != 0 {
		return r
	}
	return batchSize
}

// chunk is one pre-split slice of the partition's raw log streams, the
// unit live_tail lands.
type chunk struct {
	feats  []etl.FeatureRecord
	events []etl.EventRecord
}

// fixture is the generated input of one run. The seed reaches only
// datagen; everything the program under test sees is in the store.
type fixture struct {
	schema  *datagen.Schema
	store   *lakefs.Store
	catalog *lakefs.Catalog
	files   []string
	spec    reader.Spec
	ref     oracle
	// storedBytes is the store footprint of files.
	storedBytes int64
	// chunks is the partition pre-split into raw log streams, kept only
	// for live_tail: it pins every decoded row, which a scan workload's
	// heap (and so its GC cost and RSS) must not carry.
	chunks   []chunk
	liveRuns int
}

type specKind int

const (
	fullSpec specKind = iota
	narrowSpec
)

// buildSpec returns the workload's DataLoader spec. The full spec is
// RM1's own (every one of the 25 sparse features, dedup groups from the
// selection heuristic, the hash+clamp transform chain); the narrow spec
// consumes 5 of the 25 so projection pushdown has somewhere to show.
func buildSpec(kind specKind, schema *datagen.Schema, s float64) (reader.Spec, error) {
	if kind == narrowSpec {
		spec := reader.Spec{
			Table: tableName, BatchSize: batchSize,
			SparseFeatures:      []string{"item_0"},
			DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0"}},
		}
		return spec, spec.Validate()
	}
	groups := core.DedupGroups(core.SelectDedupFeatures(schema, s, batchSize, 0))
	return core.RM1().ReaderSpec(tableName, batchSize, groups)
}

// buildFixture generates, clusters and encodes the partition, then runs
// the serial reference pass. This is everything setup_s covers.
func buildFixture(seed int64, kind specKind, chunked bool) (*fixture, error) {
	schema := core.RM1().Schema()
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: tableSessions, MeanSamplesPerSession: meanSamples, Seed: seed,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())

	fx := &fixture{schema: schema, store: lakefs.NewStore(), catalog: lakefs.NewCatalog()}
	if _, err := dwrf.WritePartition(fx.store, fx.catalog, tableName, 0, schema, samples, dwrf.TableOptions{
		RowsPerFile: rowsPerFile, Writer: dwrf.WriterOptions{StripeRows: stripeRows},
	}); err != nil {
		return nil, err
	}
	files, err := fx.catalog.AllFiles(tableName)
	if err != nil {
		return nil, err
	}
	fx.files = files
	for _, f := range files {
		n, err := fx.store.Size(f)
		if err != nil {
			return nil, err
		}
		fx.storedBytes += n
	}
	if fx.spec, err = buildSpec(kind, schema, datagen.MeasuredS(samples)); err != nil {
		return nil, err
	}
	if fx.ref, err = reference(fx.store, fx.spec, files); err != nil {
		return nil, err
	}
	if fx.ref.Rows != len(samples) {
		return nil, fmt.Errorf("reference pass read %d rows, partition has %d", fx.ref.Rows, len(samples))
	}
	if chunked {
		for off := 0; off+chunkRows <= len(samples); off += chunkRows {
			feats, events := etl.SplitLogs(samples[off : off+chunkRows])
			fx.chunks = append(fx.chunks, chunk{feats, events})
		}
	}
	return fx, nil
}

// reference is the oracle: one serial reader.Run, hashing every batch's
// wire form in order.
func reference(store *lakefs.Store, spec reader.Spec, files []string) (oracle, error) {
	r, err := reader.NewReader(store, spec)
	if err != nil {
		return oracle{}, err
	}
	var o oracle
	h := sha256.New()
	start := time.Now()
	err = r.Run(context.Background(), files, func(b *reader.Batch) error {
		o.Rows += b.Size
		o.Batches++
		o.DecodedBytes += int64(b.WireBytes())
		return b.Encode(h)
	})
	if err != nil {
		return oracle{}, err
	}
	o.Wall = time.Since(start)
	h.Sum(o.Digest[:0])
	o.EgressBytes = r.Stats().SentBytes
	return o, nil
}
