package trainer

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// PoolKind selects how embedding activations of one feature list are
// aggregated to a single vector per row (paper §2.2).
type PoolKind int

const (
	// SumPool adds element embeddings.
	SumPool PoolKind = iota
	// MeanPool averages element embeddings.
	MeanPool
	// MaxPool takes the element-wise maximum.
	MaxPool
	// AttentionPool runs a self-attention block over the embedding
	// sequence (paper §5 "Deduplicated Pooling"; the expensive module
	// RecD deduplicates for RM1's transformers).
	AttentionPool
)

// String names the pooling kind.
func (p PoolKind) String() string {
	switch p {
	case SumPool:
		return "sum"
	case MeanPool:
		return "mean"
	case MaxPool:
		return "max"
	case AttentionPool:
		return "attention"
	}
	return fmt.Sprintf("PoolKind(%d)", int(p))
}

// EmbeddingBag is one embedding table with pooled lookups and sparse SGD.
// IDs are hashed into the table with a multiplicative hash so arbitrary
// ID spaces fit any table size.
type EmbeddingBag struct {
	Rows int
	Dim  int
	W    []float32 // Rows×Dim

	grads map[int][]float32
	// gsq holds Adagrad accumulators per table coordinate, allocated on
	// the first adaptive step.
	gsq []float32

	// caches for backward
	lastIDs    tensor.Jagged
	lastPool   PoolKind
	lastArgmax [][]int // MaxPool: winning list position per row per dim
}

// NewEmbeddingBag allocates and initializes a table.
func NewEmbeddingBag(rows, dim int, rng *rand.Rand) (*EmbeddingBag, error) {
	if rows <= 0 || dim <= 0 {
		return nil, fmt.Errorf("trainer: embedding table %dx%d invalid", rows, dim)
	}
	e := &EmbeddingBag{
		Rows:  rows,
		Dim:   dim,
		W:     make([]float32, rows*dim),
		grads: make(map[int][]float32),
	}
	scale := float32(0.1)
	for i := range e.W {
		e.W[i] = (rng.Float32()*2 - 1) * scale
	}
	return e, nil
}

// slot maps an arbitrary ID into the table.
func (e *EmbeddingBag) slot(id tensor.Value) int {
	x := uint64(id) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	return int(x % uint64(e.Rows))
}

// row returns the embedding vector of a slot.
func (e *EmbeddingBag) row(slot int) []float32 {
	return e.W[slot*e.Dim : (slot+1)*e.Dim]
}

// LookupPooled gathers and pools embeddings for every row of ids. Empty
// lists pool to the zero vector. The output has ids.Rows() rows.
func (e *EmbeddingBag) LookupPooled(ids tensor.Jagged, pool PoolKind) (tensor.Dense, error) {
	if pool == AttentionPool {
		return tensor.Dense{}, fmt.Errorf("trainer: attention pooling is done by AttentionBlock, not EmbeddingBag")
	}
	e.lastIDs = ids
	e.lastPool = pool
	e.lastArgmax = nil
	out := tensor.NewDense(ids.Rows(), e.Dim)
	if pool == MaxPool {
		e.lastArgmax = make([][]int, ids.Rows())
	}
	for i := 0; i < ids.Rows(); i++ {
		lst := ids.Row(i)
		o := out.Row(i)
		switch pool {
		case SumPool, MeanPool:
			for _, id := range lst {
				r := e.row(e.slot(id))
				for d := range o {
					o[d] += r[d]
				}
			}
			if pool == MeanPool && len(lst) > 0 {
				inv := 1 / float32(len(lst))
				for d := range o {
					o[d] *= inv
				}
			}
		case MaxPool:
			am := make([]int, e.Dim)
			for d := range am {
				am[d] = -1
			}
			for li, id := range lst {
				r := e.row(e.slot(id))
				for d := range o {
					if am[d] == -1 || r[d] > o[d] {
						o[d] = r[d]
						am[d] = li
					}
				}
			}
			e.lastArgmax[i] = am
		}
	}
	return out, nil
}

// LookupSeq gathers the raw embedding sequence for one row (len(list)×Dim)
// for attention pooling. The caller is responsible for backward via
// AccumulateSeqGrad.
func (e *EmbeddingBag) LookupSeq(ids []tensor.Value) tensor.Dense {
	out := tensor.NewDense(len(ids), e.Dim)
	for i, id := range ids {
		copy(out.Row(i), e.row(e.slot(id)))
	}
	return out
}

// BackwardPooled consumes dOut (rows×Dim) for the last LookupPooled call
// and accumulates sparse gradients.
func (e *EmbeddingBag) BackwardPooled(dOut tensor.Dense) error {
	ids := e.lastIDs
	if dOut.RowsN != ids.Rows() || dOut.Cols != e.Dim {
		return fmt.Errorf("trainer: embedding backward shape %dx%d, want %dx%d",
			dOut.RowsN, dOut.Cols, ids.Rows(), e.Dim)
	}
	for i := 0; i < ids.Rows(); i++ {
		lst := ids.Row(i)
		g := dOut.Row(i)
		switch e.lastPool {
		case SumPool, MeanPool:
			scale := float32(1)
			if e.lastPool == MeanPool && len(lst) > 0 {
				scale = 1 / float32(len(lst))
			}
			for _, id := range lst {
				acc := e.gradRow(e.slot(id))
				for d := range g {
					acc[d] += g[d] * scale
				}
			}
		case MaxPool:
			am := e.lastArgmax[i]
			for d, li := range am {
				if li < 0 {
					continue
				}
				acc := e.gradRow(e.slot(lst[li]))
				acc[d] += g[d]
			}
		}
	}
	return nil
}

// AccumulateSeqGrad adds gradients for one row's embedding sequence, the
// backward of LookupSeq. scale multiplies the gradient, which lets the
// RecD path apply one deduplicated attention backward for k duplicate
// rows by scaling with k.
func (e *EmbeddingBag) AccumulateSeqGrad(ids []tensor.Value, dSeq tensor.Dense, scale float32) {
	for i, id := range ids {
		acc := e.gradRow(e.slot(id))
		g := dSeq.Row(i)
		for d := range acc {
			acc[d] += g[d] * scale
		}
	}
}

func (e *EmbeddingBag) gradRow(slot int) []float32 {
	acc, ok := e.grads[slot]
	if !ok {
		acc = make([]float32, e.Dim)
		e.grads[slot] = acc
	}
	return acc
}

// Apply performs a sparse update under the given optimizer: only rows
// with pending gradients are touched (production "row-wise" sparse
// Adagrad visits the same rows).
func (e *EmbeddingBag) Apply(opt Optimizer, lr float32) {
	if opt == Adagrad && e.gsq == nil {
		e.gsq = make([]float32, len(e.W))
	}
	for slot, g := range e.grads {
		r := e.row(slot)
		if opt == Adagrad {
			gs := e.gsq[slot*e.Dim : (slot+1)*e.Dim]
			adagradApply(r, g, gs, lr)
		} else {
			sgdApply(r, g, lr)
		}
		delete(e.grads, slot)
	}
}
