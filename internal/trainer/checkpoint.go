package trainer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/tensor"
)

// Checkpointing: the "Model Store" box of the paper's Figure 1. Save
// serializes the full model — configuration, every parameter tensor, and
// any Adagrad accumulator state — so training resumes bit-exactly and
// trained models can be published to a blob store (lakefs in this repo).
// The fields are tensor's wire cells: uvarint sizes, and each tensor a
// uvarint count and that many little-endian float32 cells.

const checkpointMagic = "RDMD"
const checkpointVersion = 1

// maxCheckpointDim bounds every size a checkpoint's config names — a
// width, a table's rows — so that the parameter count it implies is exact
// in float64 and no product of two sizes overflows.
const maxCheckpointDim = 1 << 28

// Save writes the model to w. Every field is appended through one
// bufio.Writer, whose error is sticky: Flush reports the first write that
// failed.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	uv := func(v uint64) { bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v)) }
	f32s := func(vals []float32) {
		bw.Write(tensor.AppendFloat32s(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(vals))), vals))
	}

	bw.WriteString(checkpointMagic)
	uv(checkpointVersion)

	// Configuration.
	cfg := m.cfg
	uv(uint64(cfg.EmbDim))
	uv(uint64(cfg.DenseIn))
	for _, hidden := range [][]int{cfg.BottomHidden, cfg.TopHidden} {
		uv(uint64(len(hidden)))
		for _, h := range hidden {
			uv(uint64(h))
		}
	}
	uv(uint64(len(cfg.Features)))
	for _, f := range cfg.Features {
		uv(uint64(len(f.Key)))
		bw.WriteString(f.Key)
		uv(uint64(f.Pool))
		uv(uint64(f.TableRows))
	}
	f32s([]float32{cfg.LR})
	uv(uint64(cfg.Opt))
	uv(uint64(cfg.Seed))

	// Parameters: MLPs, tables (key-sorted for determinism), attention.
	for _, mlp := range []*MLP{m.bottom, m.top} {
		for _, l := range mlp.Layers {
			for _, t := range [][]float32{l.W, l.B, l.gsqW, l.gsqB} {
				f32s(t)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(m.tables)) {
		e := m.tables[k]
		f32s(e.W)
		f32s(e.gsq)
		if a, ok := m.attn[k]; ok {
			for _, t := range [][]float32{a.Wq, a.Wk, a.Wv} {
				f32s(t)
			}
			uv(uint64(len(a.gsq)))
			for _, g := range a.gsq {
				f32s(g)
			}
		}
	}
	return bw.Flush()
}

// paramFloats counts the floats of the parameters a model built from cfg
// holds: its MLPs' weights and biases, its tables, its attention blocks.
// A checkpoint writes each of them as four bytes.
func paramFloats(cfg Config) float64 {
	n := 0.0
	bottom, top := cfg.mlpSizes()
	for _, sizes := range [][]int{bottom, top} {
		for i := 1; i < len(sizes); i++ {
			n += float64(sizes[i-1]+1) * float64(sizes[i])
		}
	}
	dim := float64(cfg.EmbDim)
	for _, f := range cfg.Features {
		n += float64(f.rows()) * dim
		if f.Pool == AttentionPool {
			n += 3 * dim * dim
		}
	}
	return n
}

// Load reads a checkpoint written by Save and reconstructs the model. The
// checkpoint is read whole and decoded as one slice, so no size it names
// is believed beyond the bytes behind it: the parameters its config
// implies are held against the bytes that follow before the model is
// built.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := tensor.NewDecoder(data)
	magic, err := d.Next(len(checkpointMagic))
	if err != nil {
		return nil, fmt.Errorf("trainer: checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("trainer: bad checkpoint magic %q", magic)
	}

	// The reads below share one sticky error, like the writer Save
	// appends through: after the first failure every read yields zero, and
	// err is checked before what was read is used.
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("trainer: checkpoint "+format, args...)
		}
	}
	uvarint := func() uint64 {
		if err != nil {
			return 0
		}
		v, uerr := d.Uvarint()
		if uerr != nil {
			fail("field: %w", uerr)
		}
		return v
	}
	size := func(what string, max uint64) int {
		v := uvarint()
		if v > max {
			fail("%s %d exceeds %d", what, v, max)
			return 0
		}
		return int(v)
	}
	str := func() string {
		n := size("string length", 1<<16)
		if err != nil {
			return ""
		}
		b, nerr := d.Next(n)
		if nerr != nil {
			fail("string: %w", nerr)
		}
		return string(b)
	}
	// floats reads a tensor of want floats into *dst. An Adagrad
	// accumulator (acc) may instead be empty, read as nil: no adaptive
	// step has run.
	floats := func(dst *[]float32, want int, acc bool) {
		n := uvarint()
		switch {
		case err != nil:
		case n == 0 && acc:
			*dst = nil
		case n != uint64(want):
			fail("tensor of %d floats, want %d", n, want)
		default:
			t, ferr := d.Float32s(want)
			if ferr != nil {
				fail("tensor: %w", ferr)
				return
			}
			*dst = t
		}
	}

	if ver := uvarint(); err == nil && ver != checkpointVersion {
		return nil, fmt.Errorf("trainer: unsupported checkpoint version %d", ver)
	}
	var cfg Config
	cfg.EmbDim = size("embedding dim", maxCheckpointDim)
	cfg.DenseIn = size("dense width", maxCheckpointDim)
	for _, dst := range []*[]int{&cfg.BottomHidden, &cfg.TopHidden} {
		for range size("hidden layer count", 64) {
			*dst = append(*dst, size("hidden width", maxCheckpointDim))
		}
	}
	for range size("feature count", 1<<16) {
		f := FeatureConfig{Key: str(), Pool: PoolKind(uvarint())}
		f.TableRows = size("table rows", maxCheckpointDim)
		cfg.Features = append(cfg.Features, f)
	}
	lr := []float32{0}
	floats(&lr, 1, false)
	cfg.LR = lr[0]
	cfg.Opt = Optimizer(uvarint())
	cfg.Seed = int64(uvarint())
	if err != nil {
		return nil, err
	}
	if need, have := 4*paramFloats(cfg), len(d.Rest()); need > float64(have) {
		return nil, fmt.Errorf("trainer: checkpoint config implies %.0f parameter bytes, %d follow", need, have)
	}

	m, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("trainer: checkpoint config invalid: %w", err)
	}
	for _, mlp := range []*MLP{m.bottom, m.top} {
		for _, l := range mlp.Layers {
			floats(&l.W, len(l.W), false)
			floats(&l.B, len(l.B), false)
			floats(&l.gsqW, len(l.W), true)
			floats(&l.gsqB, len(l.B), true)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(m.tables)) {
		e := m.tables[k]
		floats(&e.W, len(e.W), false)
		floats(&e.gsq, len(e.W), true)
		if a, ok := m.attn[k]; ok {
			for _, t := range []*[]float32{&a.Wq, &a.Wk, &a.Wv} {
				floats(t, a.Dim*a.Dim, false)
			}
			// Adagrad keeps one accumulator per projection, or none yet.
			switch ng := uvarint(); ng {
			case 0:
			case 3:
				a.gsq = make([][]float32, ng)
				for i := range a.gsq {
					floats(&a.gsq[i], a.Dim*a.Dim, false)
				}
			default:
				fail("attention %q has %d accumulators", k, ng)
			}
		}
	}
	if rest := len(d.Rest()); rest != 0 {
		fail("has %d bytes after the model", rest)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}
