package trainer

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// AttentionBlock is a single-head self-attention pooling module: given a
// sequence of n embedding vectors it computes softmax(QKᵀ/√d)·V and mean-
// pools the result to one vector. It stands in for the transformer
// pooling modules the paper's RM1 uses over long user-history sequences —
// the modules whose compute RecD deduplicates (O7): with a grouped IKJT
// the block runs once per unique row instead of once per batch row.
type AttentionBlock struct {
	Dim           int
	Wq, Wk, Wv    []float32 // Dim×Dim, row-major in→out
	dWq, dWk, dWv []float32

	// Adagrad accumulators, allocated on the first adaptive step.
	gsq [][]float32
}

// NewAttentionBlock initializes projection matrices from rng.
func NewAttentionBlock(dim int, rng *rand.Rand) *AttentionBlock {
	a := &AttentionBlock{
		Dim: dim,
		Wq:  make([]float32, dim*dim), Wk: make([]float32, dim*dim), Wv: make([]float32, dim*dim),
		dWq: make([]float32, dim*dim), dWk: make([]float32, dim*dim), dWv: make([]float32, dim*dim),
	}
	bound := float32(math.Sqrt(3.0 / float64(dim)))
	for _, w := range [][]float32{a.Wq, a.Wk, a.Wv} {
		for i := range w {
			w[i] = (rng.Float32()*2 - 1) * bound
		}
	}
	return a
}

// AttnCache holds intermediates of one Forward call for its backward.
type AttnCache struct {
	X, Q, K, V, S, Ctx tensor.Dense
}

// matmul computes C = A·B for row-major matrices (A: m×k, B: k×n).
func matmul(a tensor.Dense, b []float32, k, n int) tensor.Dense {
	c := tensor.NewDense(a.RowsN, n)
	for i := 0; i < a.RowsN; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for kk := 0; kk < k; kk++ {
			av := ai[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * brow[j]
			}
		}
	}
	return c
}

// Forward pools one sequence (n×Dim) to a Dim vector. Empty sequences
// pool to zero with a nil cache.
func (a *AttentionBlock) Forward(x tensor.Dense) ([]float32, *AttnCache) {
	n := x.RowsN
	out := make([]float32, a.Dim)
	if n == 0 {
		return out, nil
	}
	c := &AttnCache{X: x}
	c.Q = matmul(x, a.Wq, a.Dim, a.Dim)
	c.K = matmul(x, a.Wk, a.Dim, a.Dim)
	c.V = matmul(x, a.Wv, a.Dim, a.Dim)

	invSqrt := float32(1 / math.Sqrt(float64(a.Dim)))
	c.S = tensor.NewDense(n, n)
	for i := 0; i < n; i++ {
		qi := c.Q.Row(i)
		si := c.S.Row(i)
		maxv := float32(math.Inf(-1))
		for j := 0; j < n; j++ {
			kj := c.K.Row(j)
			var dot float32
			for d := 0; d < a.Dim; d++ {
				dot += qi[d] * kj[d]
			}
			si[j] = dot * invSqrt
			if si[j] > maxv {
				maxv = si[j]
			}
		}
		var sum float32
		for j := range si {
			si[j] = float32(math.Exp(float64(si[j] - maxv)))
			sum += si[j]
		}
		inv := 1 / sum
		for j := range si {
			si[j] *= inv
		}
	}

	c.Ctx = tensor.NewDense(n, a.Dim)
	for i := 0; i < n; i++ {
		si := c.S.Row(i)
		ci := c.Ctx.Row(i)
		for j := 0; j < n; j++ {
			vj := c.V.Row(j)
			sv := si[j]
			for d := 0; d < a.Dim; d++ {
				ci[d] += sv * vj[d]
			}
		}
	}

	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		ci := c.Ctx.Row(i)
		for d := 0; d < a.Dim; d++ {
			out[d] += ci[d] * invN
		}
	}
	return out, c
}

// Backward consumes dOut (Dim) for one cached Forward, accumulates weight
// gradients, and returns dX (n×Dim). The caller pre-scales dOut when one
// deduplicated forward stands for several duplicate rows.
func (a *AttentionBlock) Backward(c *AttnCache, dOut []float32) tensor.Dense {
	if c == nil {
		return tensor.Dense{}
	}
	n := c.X.RowsN
	d := a.Dim
	invN := 1 / float32(n)

	// Mean pool backward.
	dCtx := tensor.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := dCtx.Row(i)
		for j := 0; j < d; j++ {
			row[j] = dOut[j] * invN
		}
	}

	// Ctx = S·V.
	dS := tensor.NewDense(n, n)
	dV := tensor.NewDense(n, d)
	for i := 0; i < n; i++ {
		dci := dCtx.Row(i)
		si := c.S.Row(i)
		dsi := dS.Row(i)
		for j := 0; j < n; j++ {
			vj := c.V.Row(j)
			dvj := dV.Row(j)
			var dot float32
			sv := si[j]
			for k := 0; k < d; k++ {
				dot += dci[k] * vj[k]
				dvj[k] += sv * dci[k]
			}
			dsi[j] = dot
		}
	}

	// Softmax backward per row: dZ = (dS - (dS·S)) ⊙ S, then scale by
	// 1/√d from Z = QKᵀ/√d.
	invSqrt := float32(1 / math.Sqrt(float64(d)))
	dZ := tensor.NewDense(n, n)
	for i := 0; i < n; i++ {
		si := c.S.Row(i)
		dsi := dS.Row(i)
		var dot float32
		for j := 0; j < n; j++ {
			dot += dsi[j] * si[j]
		}
		dzi := dZ.Row(i)
		for j := 0; j < n; j++ {
			dzi[j] = (dsi[j] - dot) * si[j] * invSqrt
		}
	}

	// Z = Q·Kᵀ: dQ = dZ·K, dK = dZᵀ·Q.
	dQ := tensor.NewDense(n, d)
	dK := tensor.NewDense(n, d)
	for i := 0; i < n; i++ {
		dzi := dZ.Row(i)
		dqi := dQ.Row(i)
		qi := c.Q.Row(i)
		for j := 0; j < n; j++ {
			kj := c.K.Row(j)
			dkj := dK.Row(j)
			z := dzi[j]
			if z == 0 {
				continue
			}
			for k := 0; k < d; k++ {
				dqi[k] += z * kj[k]
				dkj[k] += z * qi[k]
			}
		}
	}

	// Projections: P = X·W ⇒ dW += Xᵀ·dP, dX += dP·Wᵀ.
	dX := tensor.NewDense(n, d)
	accumProj := func(dP tensor.Dense, w, dw []float32) {
		for i := 0; i < n; i++ {
			xi := c.X.Row(i)
			dpi := dP.Row(i)
			dxi := dX.Row(i)
			for k := 0; k < d; k++ {
				xv := xi[k]
				dwrow := dw[k*d : (k+1)*d]
				wrow := w[k*d : (k+1)*d]
				var acc float32
				for o := 0; o < d; o++ {
					dwrow[o] += xv * dpi[o]
					acc += dpi[o] * wrow[o]
				}
				dxi[k] += acc
			}
		}
	}
	accumProj(dQ, a.Wq, a.dWq)
	accumProj(dK, a.Wk, a.dWk)
	accumProj(dV, a.Wv, a.dWv)
	return dX
}

// Apply updates the projections under the given optimizer.
func (a *AttentionBlock) Apply(opt Optimizer, lr float32) {
	pairs := []struct{ w, g []float32 }{{a.Wq, a.dWq}, {a.Wk, a.dWk}, {a.Wv, a.dWv}}
	if opt == Adagrad {
		if a.gsq == nil {
			a.gsq = make([][]float32, len(pairs))
			for i := range a.gsq {
				a.gsq[i] = make([]float32, a.Dim*a.Dim)
			}
		}
		for i, p := range pairs {
			adagradApply(p.w, p.g, a.gsq[i], lr)
		}
		return
	}
	for _, p := range pairs {
		sgdApply(p.w, p.g, lr)
	}
}

// ParamCount returns trainable parameter count.
func (a *AttentionBlock) ParamCount() int64 { return int64(3 * a.Dim * a.Dim) }

// FLOPsForSeq estimates forward flops for one sequence of length n:
// three projections (2nd² each) plus QKᵀ and S·V (2n²d each).
func (a *AttentionBlock) FLOPsForSeq(n int) float64 {
	d := float64(a.Dim)
	nf := float64(n)
	return 6*nf*d*d + 4*nf*nf*d
}
