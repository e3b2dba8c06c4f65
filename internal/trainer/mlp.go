// Package trainer implements a numeric DLRM (paper §2.2, Fig 2) and the
// RecD trainer-side optimizations (paper §5, O5–O7). The model computes
// real forward and backward passes in float32 at laptop scale; every
// module can run in two modes — Baseline, which expands IKJTs to KJTs
// before compute, and RecD, which performs embedding lookups, pooling, and
// attention on deduplicated rows and expands afterwards via (jagged) index
// select. The two modes are numerically equivalent; RecD does strictly
// less work, and the work is accounted in CostReport for the cluster
// simulation.
package trainer

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = xWᵀ + b with cached input for the
// backward pass and accumulated gradients for SGD.
type Linear struct {
	In, Out int
	W       []float32 // Out×In, row-major
	B       []float32 // Out

	dW []float32
	dB []float32

	// Adagrad accumulators, allocated on first adaptive step.
	gsqW []float32
	gsqB []float32

	lastX tensor.Dense
}

// NewLinear initializes a layer with uniform Xavier weights drawn from rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  make([]float32, in*out),
		B:  make([]float32, out),
		dW: make([]float32, in*out),
		dB: make([]float32, out),
	}
	bound := float32(math.Sqrt(6.0 / float64(in+out)))
	for i := range l.W {
		l.W[i] = (rng.Float32()*2 - 1) * bound
	}
	return l
}

// Forward computes y = xWᵀ + b for a batch, caching x.
func (l *Linear) Forward(x tensor.Dense) tensor.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("trainer: linear expects %d inputs, got %d", l.In, x.Cols))
	}
	l.lastX = x
	y := tensor.NewDense(x.RowsN, l.Out)
	for i := 0; i < x.RowsN; i++ {
		xi := x.Row(i)
		yi := y.Row(i)
		for o := 0; o < l.Out; o++ {
			w := l.W[o*l.In : (o+1)*l.In]
			acc := l.B[o]
			for k, xv := range xi {
				acc += xv * w[k]
			}
			yi[o] = acc
		}
	}
	return y
}

// Backward consumes dY, accumulates dW/dB, and returns dX.
func (l *Linear) Backward(dY tensor.Dense) tensor.Dense {
	x := l.lastX
	dX := tensor.NewDense(x.RowsN, l.In)
	for i := 0; i < x.RowsN; i++ {
		xi := x.Row(i)
		dyi := dY.Row(i)
		dxi := dX.Row(i)
		for o := 0; o < l.Out; o++ {
			g := dyi[o]
			if g == 0 {
				continue
			}
			w := l.W[o*l.In : (o+1)*l.In]
			dw := l.dW[o*l.In : (o+1)*l.In]
			l.dB[o] += g
			for k := range xi {
				dw[k] += g * xi[k]
				dxi[k] += g * w[k]
			}
		}
	}
	return dX
}

// Apply updates the layer under the given optimizer and zeroes gradients.
func (l *Linear) Apply(opt Optimizer, lr float32) {
	if opt == Adagrad {
		if l.gsqW == nil {
			l.gsqW = make([]float32, len(l.W))
			l.gsqB = make([]float32, len(l.B))
		}
		adagradApply(l.W, l.dW, l.gsqW, lr)
		adagradApply(l.B, l.dB, l.gsqB, lr)
		return
	}
	sgdApply(l.W, l.dW, lr)
	sgdApply(l.B, l.dB, lr)
}

// ParamCount returns the number of trainable parameters.
func (l *Linear) ParamCount() int64 { return int64(len(l.W) + len(l.B)) }

// MLP is a stack of Linear layers with ReLU between them, and optionally
// after the last layer (DLRM bottom MLPs end in ReLU; the top MLP emits a
// raw logit).
type MLP struct {
	Layers    []*Linear
	FinalReLU bool

	masks []tensor.Dense // ReLU masks cached per forward
}

// NewMLP builds an MLP with the given layer widths: sizes[0] is the input
// dimension, sizes[len-1] the output dimension.
func NewMLP(sizes []int, finalReLU bool, rng *rand.Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("trainer: mlp needs at least input and output sizes, got %v", sizes)
	}
	m := &MLP{FinalReLU: finalReLU}
	for i := 0; i+1 < len(sizes); i++ {
		if sizes[i] <= 0 || sizes[i+1] <= 0 {
			return nil, fmt.Errorf("trainer: mlp size %d invalid in %v", sizes[i], sizes)
		}
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m, nil
}

// Forward runs the batch through all layers.
func (m *MLP) Forward(x tensor.Dense) tensor.Dense {
	m.masks = m.masks[:0]
	for li, l := range m.Layers {
		x = l.Forward(x)
		if li < len(m.Layers)-1 || m.FinalReLU {
			mask := tensor.NewDense(x.RowsN, x.Cols)
			for i, v := range x.Data {
				if v > 0 {
					mask.Data[i] = 1
				} else {
					x.Data[i] = 0
				}
			}
			m.masks = append(m.masks, mask)
		}
	}
	return x
}

// Backward propagates dOut through the stack, accumulating layer grads.
func (m *MLP) Backward(dOut tensor.Dense) tensor.Dense {
	mi := len(m.masks) - 1
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 || m.FinalReLU {
			mask := m.masks[mi]
			mi--
			for i := range dOut.Data {
				dOut.Data[i] *= mask.Data[i]
			}
		}
		dOut = m.Layers[li].Backward(dOut)
	}
	return dOut
}

// Apply updates every layer under the given optimizer.
func (m *MLP) Apply(opt Optimizer, lr float32) {
	for _, l := range m.Layers {
		l.Apply(opt, lr)
	}
}

// ParamCount sums layer parameters.
func (m *MLP) ParamCount() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.ParamCount()
	}
	return n
}

// ForwardFLOPs estimates the dense flops of one forward pass at the given
// batch size (2·B·In·Out per layer).
func (m *MLP) ForwardFLOPs(batch int) float64 {
	var f float64
	for _, l := range m.Layers {
		f += 2 * float64(batch) * float64(l.In) * float64(l.Out)
	}
	return f
}
