package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/scribe"
	"repro/internal/trainer"
)

// PipelineConfig selects which RecD optimizations an end-to-end run
// enables, mirroring the paper's ablation axes (Table 1, Fig 9).
type PipelineConfig struct {
	RM RMSpec

	// ShardBySession enables O1 at the Scribe tier.
	ShardBySession bool
	// Clustered enables O2: the ETL clusters the landed table by session.
	Clustered bool
	// Dedup enables O3–O5/O7: IKJT conversion at readers and the RecD
	// trainer path.
	Dedup bool
	// UseJaggedIndexSelect enables O6 (only meaningful with Dedup).
	UseJaggedIndexSelect bool

	// Batch overrides the global batch size; 0 picks the RM's baseline
	// or RecD batch according to Dedup.
	Batch int
	// Readers is the reader-tier width (default 4).
	Readers int
	// ScribeShards is the Scribe cluster width (default 32).
	ScribeShards int
	// TrainSteps caps the numeric training steps (default 6; the cost
	// model extrapolates cluster behaviour from their cost reports).
	TrainSteps int
	// StatsOnly skips training and cluster simulation entirely: the
	// reader session is drained for its accounting (ingest/egress bytes,
	// stage times, dedup factor) and every batch is discarded as soon as
	// it is measured. The count-only path for experiments that never
	// look at FinalLoss/Cost/Iteration (Table 3, Fig 10).
	StatsOnly bool
	// ShareScans opts the run's reader session into the service's
	// cross-session ScanCache (dpp.Spec.ShareScans). A single Run opens
	// one session over a freshly landed table, so this changes nothing
	// measurable here — it exists so callers embedding core in
	// multi-session setups (several jobs over one landed partition, as
	// cmd/recd-train does per epoch) inherit the sharing path.
	ShareScans bool
	// DedupeThreshold overrides the selection heuristic's threshold.
	DedupeThreshold float64
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Batch == 0 {
		if c.Dedup {
			c.Batch = c.RM.RecDBatch
		} else {
			c.Batch = c.RM.BaselineBatch
		}
	}
	if c.Readers == 0 {
		c.Readers = 4
	}
	if c.ScribeShards == 0 {
		c.ScribeShards = 32
	}
	if c.TrainSteps == 0 {
		c.TrainSteps = 6
	}
	return c
}

// Result aggregates every tier's measurements for one pipeline run.
type Result struct {
	RM      string
	Samples int
	// S is the measured mean samples per session in the partition.
	S float64

	// Scribe compression (O1).
	Scribe scribe.Stats
	// Partition is the landed table's storage stats (O2).
	Partition dwrf.PartitionStats
	// Reader tier accounting (O3/O4, Table 3, Fig 10).
	Reader reader.Stats
	// ReaderThroughput is samples per reader-CPU-second.
	ReaderThroughput float64

	// Decisions and DedupGroups record the heuristic's output.
	Decisions   []FeatureDecision
	DedupGroups [][]string
	// MeasuredDedupFactor is the realized value-dedup across batches.
	MeasuredDedupFactor float64

	// FinalLoss is the numeric model's loss after TrainSteps.
	FinalLoss float64
	// Cost is the aggregate cost report across trained batches.
	Cost *trainer.CostReport
	// Iteration is the simulated cluster iteration at the configured
	// global batch.
	Iteration trainer.IterationReport
}

// Run executes the full pipeline under one configuration.
func Run(cfg PipelineConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	rm := cfg.RM
	schema := rm.Schema()
	res := &Result{RM: rm.Name}

	// --- Data generation: raw inference-ordered log stream.
	gen := datagen.NewGenerator(schema, rm.GenCfg)
	samples := gen.GeneratePartition()
	res.Samples = len(samples)
	res.S = datagen.MeasuredS(samples)

	// --- Scribe (O1): append the raw logs under the configured policy.
	policy := scribe.ShardByRequest
	if cfg.ShardBySession {
		policy = scribe.ShardBySession
	}
	sc, err := scribe.New(scribe.Config{Shards: cfg.ScribeShards, Policy: policy})
	if err != nil {
		return nil, err
	}
	var payload []byte
	for _, s := range samples {
		payload = s.AppendTo(payload[:0])
		if err := sc.Append(scribe.Message{
			RequestID: s.RequestID,
			SessionID: s.SessionID,
			Payload:   payload,
		}); err != nil {
			return nil, err
		}
	}
	if err := sc.Flush(); err != nil {
		return nil, err
	}
	res.Scribe = sc.Stats()

	// --- ETL: consume the raw logs back off the message bus (charging
	// Scribe TX), split them into feature and event streams, and inner-
	// join on request ID to produce labeled samples — the paper's
	// streaming/batch processing stage (§2.1). With O2 the job also
	// clusters by session; otherwise samples land in inference-time order.
	var consumed []datagen.Sample
	if err := sc.Consume(func(m scribe.Message) error {
		dec, err := datagen.DecodeSample(m.Payload)
		if err != nil {
			return err
		}
		consumed = append(consumed, dec)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(consumed) != len(samples) {
		return nil, fmt.Errorf("core: scribe consume returned %d samples, appended %d", len(consumed), len(samples))
	}
	feats, events := etl.SplitLogs(consumed)
	landed := etl.Join(feats, events)
	if cfg.Clustered {
		landed = etl.ClusterBySession(landed)
	} else {
		sort.SliceStable(landed, func(i, j int) bool { return landed[i].Timestamp < landed[j].Timestamp })
	}

	// --- Storage: land one hourly partition of DWRF files.
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	table := rm.Name
	pstats, err := dwrf.WritePartition(store, catalog, table, 0, schema, landed,
		dwrf.TableOptions{RowsPerFile: 4096, Writer: dwrf.WriterOptions{StripeRows: 128}})
	if err != nil {
		return nil, err
	}
	res.Partition = pstats

	// --- Dedup selection (heuristic §7) and reader spec (O3/O4).
	var groups [][]string
	if cfg.Dedup {
		res.Decisions = SelectDedupFeatures(schema, res.S, cfg.Batch, cfg.DedupeThreshold)
		groups = DedupGroups(res.Decisions)
	}
	res.DedupGroups = groups
	spec, err := rm.ReaderSpec(table, cfg.Batch, groups)
	if err != nil {
		return nil, err
	}

	// --- Reader tier, DPP-style: open one session on a preprocessing
	// service and pull batches. Streaming (rather than collecting the
	// whole table) keeps only the first TrainSteps batches resident —
	// dedup-factor accounting folds in per batch and the rest of the
	// table is discarded as it is measured.
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: catalog})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, Readers: cfg.Readers, ShareScans: cfg.ShareScans})
	if err != nil {
		return nil, err
	}
	var trainBatches []*reader.Batch
	var origValues, dedupValues float64
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, ik := range b.IKJTs {
			dedupValues += float64(ik.SDDWireBytes())
			origValues += float64(ik.SDDWireBytes()) * ik.MeasuredFactor()
		}
		if !cfg.StatsOnly && len(trainBatches) < cfg.TrainSteps {
			trainBatches = append(trainBatches, b)
		}
	}
	rstats := sess.Stats().Reader
	res.Reader = rstats
	res.ReaderThroughput = reader.ThroughputSamplesPerSec(rstats)

	// Measured dedup factor across IKJT groups.
	if dedupValues > 0 {
		res.MeasuredDedupFactor = origValues / dedupValues
	} else {
		res.MeasuredDedupFactor = 1
	}

	if cfg.StatsOnly {
		return res, nil
	}

	// --- Training: numeric steps for correctness + cost reports for the
	// cluster model.
	model, err := trainer.New(rm.ModelConfig(schema))
	if err != nil {
		return nil, err
	}
	mode := trainer.Baseline
	if cfg.Dedup {
		mode = trainer.RecD
	}
	var costs []*trainer.CostReport
	for _, b := range trainBatches {
		loss, cost, err := model.TrainStep(b, mode)
		if err != nil {
			return nil, err
		}
		res.FinalLoss = loss
		costs = append(costs, cost)
	}
	if len(costs) == 0 {
		return nil, fmt.Errorf("core: no batches to train on")
	}
	agg := &trainer.CostReport{}
	for _, c := range costs {
		agg.Add(c)
	}
	res.Cost = agg

	rep, err := trainer.SimulateTraining(costs, cfg.Batch, trainer.SimInput{
		EmbParamBytes:        rm.SimEmbParamBytes,
		DenseStateBytes:      model.DenseParamCount() * 8, // params + momentum
		UseJaggedIndexSelect: cfg.UseJaggedIndexSelect || !cfg.Dedup,
		ByteScale:            rm.SimByteScale,
		PoolFlopScale:        rm.SimPoolFlopScale,
		DenseFlopScale:       rm.SimDenseFlopScale,
		ParamScale:           rm.SimParamScale,
		ActMemScale:          rm.SimActMemScale,
	}, trainer.DefaultCluster(rm.Nodes))
	if err != nil {
		return nil, err
	}
	res.Iteration = rep
	return res, nil
}

// RunBaseline runs the RM with every RecD optimization off.
func RunBaseline(rm RMSpec) (*Result, error) {
	return Run(PipelineConfig{RM: rm})
}

// RunRecD runs the RM with the full optimization suite on.
func RunRecD(rm RMSpec) (*Result, error) {
	return Run(PipelineConfig{
		RM:                   rm,
		ShardBySession:       true,
		Clustered:            true,
		Dedup:                true,
		UseJaggedIndexSelect: true,
	})
}
