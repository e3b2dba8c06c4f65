package trainer

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/reader"
	"repro/internal/tensor"
)

// Mode selects the execution path for sparse features.
type Mode int

const (
	// Baseline expands every IKJT back to a KJT before any compute, as a
	// pre-RecD trainer would.
	Baseline Mode = iota
	// RecD performs embedding lookups and pooling on deduplicated rows
	// and expands pooled outputs afterwards via index select (O5–O7).
	RecD
)

// String names the mode.
func (m Mode) String() string {
	if m == RecD {
		return "recd"
	}
	return "baseline"
}

// FeatureConfig describes one sparse feature consumed by the model.
type FeatureConfig struct {
	Key string
	// Pool selects the pooling module.
	Pool PoolKind
	// TableRows is the embedding table height (IDs are hashed in).
	TableRows int
}

// rows is the feature's table height: TableRows, or 2^16 when unset.
func (f FeatureConfig) rows() int {
	if f.TableRows <= 0 {
		return 1 << 16
	}
	return f.TableRows
}

// Config assembles a DLRM.
type Config struct {
	// EmbDim is the embedding dimension, shared by all tables and the
	// bottom MLP output.
	EmbDim int
	// DenseIn is the dense feature count.
	DenseIn int
	// BottomHidden are the bottom MLP hidden widths (output is EmbDim).
	BottomHidden []int
	// TopHidden are the top MLP hidden widths (output is one logit).
	TopHidden []int
	// Features lists the sparse features in model order.
	Features []FeatureConfig
	// LR is the learning rate.
	LR float32
	// Opt selects the update rule (SGD by default; production DLRMs use
	// Adagrad for sparse tables).
	Opt Optimizer
	// Seed makes initialization deterministic.
	Seed int64
}

// mlpSizes returns the layer widths of the bottom and the top MLP: the
// bottom maps the dense features to an embedding, the top maps the
// pairwise interactions to one logit.
func (cfg Config) mlpSizes() (bottom, top []int) {
	bottom = append(append([]int{cfg.DenseIn}, cfg.BottomHidden...), cfg.EmbDim)
	interDim := InteractionOutputDim(1+len(cfg.Features), cfg.EmbDim)
	top = append(append([]int{interDim}, cfg.TopHidden...), 1)
	return bottom, top
}

// Model is a numeric DLRM.
type Model struct {
	cfg    Config
	bottom *MLP
	top    *MLP
	tables map[string]*EmbeddingBag
	attn   map[string]*AttentionBlock
}

// New builds and initializes a model.
func New(cfg Config) (*Model, error) {
	if cfg.EmbDim <= 0 || cfg.DenseIn <= 0 {
		return nil, fmt.Errorf("trainer: config needs EmbDim and DenseIn, got %d/%d", cfg.EmbDim, cfg.DenseIn)
	}
	if len(cfg.Features) == 0 {
		return nil, fmt.Errorf("trainer: config needs at least one sparse feature")
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	bottomSizes, topSizes := cfg.mlpSizes()
	bottom, err := NewMLP(bottomSizes, true, rng)
	if err != nil {
		return nil, err
	}
	top, err := NewMLP(topSizes, false, rng)
	if err != nil {
		return nil, err
	}

	m := &Model{
		cfg:    cfg,
		bottom: bottom,
		top:    top,
		tables: make(map[string]*EmbeddingBag),
		attn:   make(map[string]*AttentionBlock),
	}
	seen := map[string]bool{}
	for _, f := range cfg.Features {
		if seen[f.Key] {
			return nil, fmt.Errorf("trainer: feature %q configured twice", f.Key)
		}
		seen[f.Key] = true
		tb, err := NewEmbeddingBag(f.rows(), cfg.EmbDim, rng)
		if err != nil {
			return nil, err
		}
		m.tables[f.Key] = tb
		if f.Pool == AttentionPool {
			m.attn[f.Key] = NewAttentionBlock(cfg.EmbDim, rng)
		}
	}
	return m, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// DenseParamCount sums data-parallel (MLP + attention) parameters — the
// ones the all-reduce synchronizes.
func (m *Model) DenseParamCount() int64 {
	n := m.bottom.ParamCount() + m.top.ParamCount()
	for _, a := range m.attn {
		n += a.ParamCount()
	}
	return n
}

// EmbParamBytes sums embedding-table bytes — the model-parallel state.
func (m *Model) EmbParamBytes() int64 {
	var n int64
	for _, t := range m.tables {
		n += t.Bytes()
	}
	return n
}

// featState carries one feature's forward intermediates.
type featState struct {
	cfg     FeatureConfig
	table   *EmbeddingBag
	attn    *AttentionBlock
	inverse []int32 // non-nil when the RecD path deduplicated this feature

	// attention path
	caches []*AttnCache
	seqIDs [][]tensor.Value
}

// forwardState caches one forward pass for backward.
type forwardState struct {
	mode       Mode
	batchSize  int
	feats      []*featState
	interCache *InteractionCache
}

// featureInput resolves the jagged tensor a feature's compute should run
// over, honoring the mode: the RecD path uses deduplicated rows when the
// batch carries the feature in an IKJT.
func featureInput(b *reader.Batch, key string, mode Mode) (j tensor.Jagged, inverse []int32, err error) {
	if mode == RecD {
		for _, ik := range b.IKJTs {
			if dd, ok := ik.Deduped(key); ok {
				return dd, ik.InverseLookup(), nil
			}
		}
	}
	j, ok := b.Feature(key)
	if !ok {
		return tensor.Jagged{}, nil, fmt.Errorf("trainer: batch is missing feature %q", key)
	}
	return j, nil, nil
}

// Forward runs one forward pass, returning logits (B×1), the state needed
// for Backward, and the resource cost report.
func (m *Model) Forward(b *reader.Batch, mode Mode) (tensor.Dense, *forwardState, *CostReport, error) {
	if err := b.Validate(); err != nil {
		return tensor.Dense{}, nil, nil, err
	}
	if b.Dense.Cols != m.cfg.DenseIn {
		return tensor.Dense{}, nil, nil, fmt.Errorf("trainer: batch has %d dense features, model wants %d",
			b.Dense.Cols, m.cfg.DenseIn)
	}
	cost := NewCostReport(b, mode, m)
	st := &forwardState{mode: mode, batchSize: b.Size}

	inputs := make([]tensor.Dense, 0, 1+len(m.cfg.Features))
	bottomOut := m.bottom.Forward(b.Dense)
	inputs = append(inputs, bottomOut)

	for _, fc := range m.cfg.Features {
		j, inverse, err := featureInput(b, fc.Key, mode)
		if err != nil {
			return tensor.Dense{}, nil, nil, err
		}
		fs := &featState{cfg: fc, table: m.tables[fc.Key], inverse: inverse}
		cost.chargeFeature(m, fc, j, inverse != nil)

		var pooled tensor.Dense
		if fc.Pool == AttentionPool {
			fs.attn = m.attn[fc.Key]
			pooled = tensor.NewDense(j.Rows(), m.cfg.EmbDim)
			fs.caches = make([]*AttnCache, j.Rows())
			fs.seqIDs = make([][]tensor.Value, j.Rows())
			for r := 0; r < j.Rows(); r++ {
				ids := j.Row(r)
				seq := fs.table.LookupSeq(ids)
				out, cache := fs.attn.Forward(seq)
				copy(pooled.Row(r), out)
				fs.caches[r] = cache
				fs.seqIDs[r] = ids
			}
		} else {
			var err error
			pooled, err = fs.table.LookupPooled(j, fc.Pool)
			if err != nil {
				return tensor.Dense{}, nil, nil, err
			}
		}

		if inverse != nil {
			// Expand deduplicated pooled outputs to the full batch —
			// the index select after the embedding all-to-all (O6).
			pooled = tensor.DenseIndexSelect(pooled, inverse)
		}
		inputs = append(inputs, pooled)
		st.feats = append(st.feats, fs)
	}

	interOut, ic, err := InteractionForward(inputs)
	if err != nil {
		return tensor.Dense{}, nil, nil, err
	}
	st.interCache = ic
	logits := m.top.Forward(interOut)
	cost.finish(m, b.Size)
	return logits, st, cost, nil
}

// Backward propagates the logit gradient through the whole model,
// accumulating parameter gradients.
func (m *Model) Backward(st *forwardState, dLogits tensor.Dense) error {
	dInter := m.top.Backward(dLogits)
	grads := InteractionBackward(st.interCache, dInter)
	m.bottom.Backward(grads[0])

	for i, fs := range st.feats {
		g := grads[i+1] // B×D

		if fs.inverse != nil {
			// Fold duplicate-row gradients onto their unique row: the
			// backward of the expansion index select.
			gU := tensor.NewDense(uniqueRows(fs), m.cfg.EmbDim)
			tensor.DenseIndexAdd(gU, fs.inverse, g)
			g = gU
		}

		if fs.cfg.Pool == AttentionPool {
			for r := 0; r < g.RowsN; r++ {
				dSeq := fs.attn.Backward(fs.caches[r], g.Row(r))
				if dSeq.RowsN > 0 {
					fs.table.AccumulateSeqGrad(fs.seqIDs[r], dSeq, 1)
				}
			}
		} else {
			if err := fs.table.BackwardPooled(g); err != nil {
				return err
			}
		}
	}
	return nil
}

func uniqueRows(fs *featState) int {
	if fs.cfg.Pool == AttentionPool {
		return len(fs.caches)
	}
	return fs.table.lastIDs.Rows()
}

// Step applies the configured optimizer to every module.
func (m *Model) Step() {
	m.bottom.Apply(m.cfg.Opt, m.cfg.LR)
	m.top.Apply(m.cfg.Opt, m.cfg.LR)
	for _, t := range m.tables {
		t.Apply(m.cfg.Opt, m.cfg.LR)
	}
	for _, a := range m.attn {
		a.Apply(m.cfg.Opt, m.cfg.LR)
	}
}

// TrainStep runs forward, loss, backward, and the optimizer step,
// returning the loss and the iteration's cost report.
func (m *Model) TrainStep(b *reader.Batch, mode Mode) (float64, *CostReport, error) {
	logits, st, cost, err := m.Forward(b, mode)
	if err != nil {
		return 0, nil, err
	}
	loss, dLogits, err := BCEWithLogits(logits, b.Labels)
	if err != nil {
		return 0, nil, err
	}
	if err := m.Backward(st, dLogits); err != nil {
		return 0, nil, err
	}
	m.Step()
	return loss, cost, nil
}

// Predict runs inference only and returns sigmoid probabilities.
func (m *Model) Predict(b *reader.Batch, mode Mode) ([]float64, error) {
	logits, _, _, err := m.Forward(b, mode)
	if err != nil {
		return nil, err
	}
	out := make([]float64, logits.RowsN)
	for i := range out {
		out[i] = sigmoid(float64(logits.At(i, 0)))
	}
	return out, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
