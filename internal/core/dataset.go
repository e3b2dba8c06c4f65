package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp/landing"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
)

// TrainTableConfig parameterizes the deterministic synthetic training
// table cmd/recd-train trains on and cmd/recd-serve serves. Determinism
// is the point: two processes building with equal configs land
// byte-identical partitions under identical file names and derive the
// same reader spec (same fingerprint), which is what lets a trainer
// submit specs and file lists to a preprocessing server that landed the
// data independently — and lets its ShareScans sessions hit the server's
// cache entries.
type TrainTableConfig struct {
	// Sessions is the training-partition session count; the eval
	// partition gets a quarter of it.
	Sessions int
	// Batch is the training batch size the derived spec uses.
	Batch int
	// Seed drives generation (eval uses Seed+1000, as recd-train always
	// has; live hour h, Seed+2000+h).
	Seed int64
}

// TrainSeed is the Seed both binaries build their table with, so a
// recd-serve and a local recd-train given the same sessions and batch
// size land the same files.
const TrainSeed = 11

// TrainTable is the landed dataset plus everything both binaries derive
// from it.
type TrainTable struct {
	cfg TrainTableConfig // what the table was built with; LandLive continues it

	Schema  *datagen.Schema
	Store   *lakefs.Store
	Catalog *lakefs.Catalog
	// Spec is the derived reader spec: the dedup heuristic's groups over
	// the measured S, remaining sparse features as plain KJTs.
	Spec reader.Spec
	// S is the measured mean samples per session of the train partition.
	S float64
	// TrainRows counts landed training samples.
	TrainRows int
}

// trainTableSchema is the fixed feature schema of the demo table: the
// cart sequences form one sync group (a grouped IKJT); the item features
// use small ID spaces so the label's item effect is learnable at demo
// scale.
func trainTableSchema() (*datagen.Schema, error) {
	specs := []datagen.FeatureSpec{
		{Key: "hist_items", Class: datagen.UserFeature, ChangeProb: 0.08,
			MeanLen: 24, MaxLen: 48, Update: datagen.ShiftAppend,
			Cardinality: 1 << 34, SyncGroup: "hist"},
		{Key: "hist_cats", Class: datagen.UserFeature, ChangeProb: 0.08,
			MeanLen: 24, MaxLen: 48, Update: datagen.ShiftAppend,
			Cardinality: 1 << 16, SyncGroup: "hist"},
		{Key: "user_prefs", Class: datagen.UserFeature, ChangeProb: 0.1,
			MeanLen: 8, MaxLen: 16, Update: datagen.Resample, Cardinality: 1 << 20},
		{Key: "item_id", Class: datagen.ItemFeature, ChangeProb: 0.95,
			MeanLen: 1, MaxLen: 2, Update: datagen.Resample, Cardinality: 1 << 8},
		{Key: "item_cat", Class: datagen.ItemFeature, ChangeProb: 0.9,
			MeanLen: 2, MaxLen: 4, Update: datagen.Resample, Cardinality: 1 << 6},
	}
	return datagen.NewSchema(specs, 4)
}

// BuildTrainTable generates, clusters, and lands the two hourly
// partitions (hour 0 train, hour 1 eval) and derives the dedup-grouped
// reader spec.
func BuildTrainTable(cfg TrainTableConfig) (*TrainTable, error) {
	schema, err := trainTableSchema()
	if err != nil {
		return nil, err
	}
	train := etl.ClusterBySession(generate(schema, cfg.Sessions, cfg.Seed))
	eval := etl.ClusterBySession(generate(schema, cfg.Sessions/4, cfg.Seed+1000))

	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	for hour, part := range map[int64][]datagen.Sample{0: train, 1: eval} {
		if _, err := dwrf.WritePartition(store, catalog, "train", hour, schema, part,
			dwrf.TableOptions{RowsPerFile: 4096, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
			return nil, err
		}
	}

	s := datagen.MeasuredS(train)
	groups := DedupGroups(SelectDedupFeatures(schema, s, cfg.Batch, 0))
	spec := reader.Spec{Table: "train", BatchSize: cfg.Batch, DedupSparseFeatures: groups}
	inGroup := map[string]bool{}
	for _, g := range groups {
		for _, k := range g {
			inGroup[k] = true
		}
	}
	for _, f := range schema.Sparse {
		if !inGroup[f.Key] {
			spec.SparseFeatures = append(spec.SparseFeatures, f.Key)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	return &TrainTable{
		cfg:       cfg,
		Schema:    schema,
		Store:     store,
		Catalog:   catalog,
		Spec:      spec,
		S:         s,
		TrainRows: len(train),
	}, nil
}

// generate is one partition of the demo table: sessions users' samples,
// unclustered, drawn from seed.
func generate(schema *datagen.Schema, sessions int, seed int64) []datagen.Sample {
	return datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions:              sessions,
		MeanSamplesPerSession: 14,
		Seed:                  seed,
		LabelSignal:           2.0,
		CTR:                   0.2,
	}).GeneratePartition()
}

// LandLive starts the live landing loop both binaries host with -follow.
// Every interval it generates the next hour partition — the hour after the
// catalog's newest first, max(Sessions/4, 1) sessions drawn from
// Seed+2000+hour of the config the table was built with — and appends it
// through a landing writer that joins, clusters and seals it (early, once
// interval passes). With retainHours > 0 it then keeps only the newest
// retainHours partitions; the catalog tells every cache subscribed to it
// which files went.
//
// stop ends the loop and closes the writer, and returns how many hour
// partitions retention dropped; it may be called more than once. A landing,
// retention or close error ends the loop and is handed to fail.
func (tt *TrainTable) LandLive(interval time.Duration, retainHours int, fail func(error)) (w *landing.Writer, stop func() int, err error) {
	if interval <= 0 {
		return nil, nil, fmt.Errorf("core: live landing needs a positive interval, got %v", interval)
	}
	w, err = landing.NewWriter(landing.Config{
		Store: tt.Store, Catalog: tt.Catalog, Table: tt.Spec.Table,
		Schema: tt.Schema, FlushRows: 4096, FlushInterval: interval,
		Cluster: true,
	})
	if err != nil {
		return nil, nil, err
	}
	hour := int64(0)
	for _, h := range tt.Catalog.Partitions(tt.Spec.Table) {
		hour = max(hour, h+1)
	}
	sessions := max(tt.cfg.Sessions/4, 1)
	quit, done := make(chan struct{}), make(chan struct{})
	dropped := 0
	go func() {
		defer close(done)
		for ; ; hour++ {
			select {
			case <-quit:
				if err := w.Close(); err != nil {
					fail(fmt.Errorf("landing writer close: %w", err))
				}
				return
			case <-time.After(interval):
			}
			if err := w.Append(hour, generate(tt.Schema, sessions, tt.cfg.Seed+2000+hour)...); err != nil {
				fail(fmt.Errorf("landing writer: %w", err))
				return
			}
			if retainHours > 0 {
				gone, err := tt.Catalog.EnforceRetention(tt.Store, tt.Spec.Table, retainHours)
				if err != nil {
					fail(fmt.Errorf("retention: %w", err))
					return
				}
				dropped += len(gone)
			}
		}
	}()
	var once sync.Once
	return w, func() int {
		once.Do(func() { close(quit) })
		<-done
		return dropped
	}, nil
}
