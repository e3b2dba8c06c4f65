package trainer

import (
	"repro/internal/reader"
	"repro/internal/tensor"
)

// CostReport counts the per-iteration resources the paper's trainer
// optimizations target (Table 1 O5–O7, Fig 6): embedding lookups and
// activation memory, pooling compute, SDD and embedding-return all-to-all
// bytes, and index-select traffic. The numeric computation in Model is
// the ground truth; CostReport is the bridge to the gpusim/comm cluster
// model that converts these counts into iteration latency.
type CostReport struct {
	// Batch is the logical batch size.
	Batch int
	// Mode is the execution path that produced the report.
	Mode Mode

	// EmbLookups counts embedding rows gathered.
	EmbLookups int64
	// EmbActivationBytes counts bytes of embedding activations
	// materialized (inputs to pooling) — the dynamic GPU memory of §5.
	EmbActivationBytes int64
	// PoolFLOPs counts attention-pooling flops (the expensive modules).
	PoolFLOPs float64
	// DenseFLOPs counts MLP and interaction flops.
	DenseFLOPs float64

	// SDDBytes counts sparse feature bytes (values + offsets) crossing
	// the sparse-data-distribution all-to-all. Inverse lookups stay
	// local and are never charged (paper §5).
	SDDBytes int64
	// EmbOutBytes counts pooled-embedding bytes crossing the return
	// all-to-all; deduplicated pooling keeps these at unique-row count
	// until the post-A2A index select (O5 "Deduplicated EMB").
	EmbOutBytes int64
	// IndexSelectBytes counts bytes moved expanding deduplicated pooled
	// outputs to the full batch via jagged/dense index select (O6).
	IndexSelectBytes int64
	// PaddedExpandBytes counts what the same expansions would move if
	// jagged tensors first had to be padded to dense, the pre-O6 cost.
	PaddedExpandBytes int64

	// DenseParamBytes is the data-parallel parameter volume all-reduced
	// every iteration.
	DenseParamBytes int64
}

// NewCostReport starts a report for one batch.
func NewCostReport(b *reader.Batch, mode Mode, m *Model) *CostReport {
	return &CostReport{Batch: b.Size, Mode: mode}
}

// chargeFeature accounts one feature's forward costs. j is the jagged
// tensor compute ran over (deduplicated when deduped is true); expansion
// costs are charged for deduped features.
func (c *CostReport) chargeFeature(m *Model, fc FeatureConfig, j tensor.Jagged, deduped bool) {
	dim := m.cfg.EmbDim
	values := int64(j.NumValues())

	c.EmbLookups += values
	c.EmbActivationBytes += values * int64(dim) * 4
	c.SDDBytes += int64(j.WireBytes())

	if fc.Pool == AttentionPool {
		a := m.attn[fc.Key]
		for r := 0; r < j.Rows(); r++ {
			c.PoolFLOPs += a.FLOPsForSeq(j.RowLen(r))
		}
	} else {
		// Element-wise pooling: one fused multiply-add per value element.
		c.PoolFLOPs += float64(values) * float64(dim)
	}

	// Pooled output rows crossing the embedding-return all-to-all.
	c.EmbOutBytes += int64(j.Rows()) * int64(dim) * 4

	if deduped {
		// Post-A2A expansion via index select: write B rows of dim.
		expand := int64(c.Batch) * int64(dim) * 4
		c.IndexSelectBytes += expand
		// Without jagged index select the conversion back to a KJT pads
		// the unique rows to the max list length first (paper §5):
		// materialize U×maxLen values then gather B of those rows.
		maxLen := 0
		for r := 0; r < j.Rows(); r++ {
			if l := j.RowLen(r); l > maxLen {
				maxLen = l
			}
		}
		padded := int64(j.Rows()) * int64(maxLen) * tensor.ValueBytes
		c.PaddedExpandBytes += padded + int64(c.Batch)*int64(maxLen)*tensor.ValueBytes
	}
}

// finish adds batch-proportional dense costs once all features are charged.
func (c *CostReport) finish(m *Model, batch int) {
	fwd := m.bottom.ForwardFLOPs(batch) + m.top.ForwardFLOPs(batch)
	nInputs := 1 + len(m.cfg.Features)
	pairs := float64(nInputs * (nInputs - 1) / 2)
	inter := 2 * float64(batch) * pairs * float64(m.cfg.EmbDim)
	// Backward is ≈2× forward for dense layers.
	c.DenseFLOPs += 3 * (fwd + inter)
	c.DenseParamBytes = m.DenseParamCount() * 4
}

// Add accumulates o into c (for multi-batch aggregation).
func (c *CostReport) Add(o *CostReport) {
	c.Batch += o.Batch
	c.EmbLookups += o.EmbLookups
	c.EmbActivationBytes += o.EmbActivationBytes
	c.PoolFLOPs += o.PoolFLOPs
	c.DenseFLOPs += o.DenseFLOPs
	c.SDDBytes += o.SDDBytes
	c.EmbOutBytes += o.EmbOutBytes
	c.IndexSelectBytes += o.IndexSelectBytes
	c.PaddedExpandBytes += o.PaddedExpandBytes
	if o.DenseParamBytes > c.DenseParamBytes {
		c.DenseParamBytes = o.DenseParamBytes
	}
}
