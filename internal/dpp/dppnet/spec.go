package dppnet

import (
	"fmt"

	"repro/internal/dpp"
	"repro/internal/reader"
)

// wireSpec is the JSON form of a dpp.Spec. reader.Spec's transform
// fields are interfaces, so they travel by name + parameters and are
// rebuilt as the same concrete values on the server — which is what
// keeps reader.Spec.Fingerprint identical on both sides of the wire, so
// a remote ShareScans session lands in the same cache entries a local
// one would.
type wireSpec struct {
	Table                string          `json:"table,omitempty"`
	BatchSize            int             `json:"batch_size"`
	SparseFeatures       []string        `json:"sparse_features,omitempty"`
	DedupSparseFeatures  [][]string      `json:"dedup_sparse_features,omitempty"`
	PartialDedupFeatures []string        `json:"partial_dedup_features,omitempty"`
	SparseTransforms     []wireTransform `json:"sparse_transforms,omitempty"`
	DenseTransforms      []wireTransform `json:"dense_transforms,omitempty"`

	Readers    int      `json:"readers,omitempty"`
	Buffer     int      `json:"buffer,omitempty"`
	Files      []string `json:"files,omitempty"`
	ShareScans bool     `json:"share_scans,omitempty"`
	Follow     bool     `json:"follow,omitempty"`
}

// wireTransform carries one transform by name plus the union of the
// known transforms' parameters.
type wireTransform struct {
	Name      string   `json:"name"`
	Features  []string `json:"features,omitempty"`
	TableSize int64    `json:"table_size,omitempty"`
	Min       int64    `json:"min,omitempty"`
	Max       int64    `json:"max,omitempty"`
	MaxLen    int      `json:"max_len,omitempty"`
}

// encodeSparseTransform maps the package's concrete transforms to wire
// form. Custom SparseTransform implementations cannot cross the process
// boundary — the server has no code for them — so they are rejected at
// the client rather than silently dropped.
func encodeSparseTransform(tr reader.SparseTransform) (wireTransform, error) {
	switch v := tr.(type) {
	case reader.HashMod:
		return wireTransform{Name: v.Name(), Features: v.Features, TableSize: v.TableSize}, nil
	case reader.Clamp:
		return wireTransform{Name: v.Name(), Features: v.Features, Min: v.Min, Max: v.Max}, nil
	case reader.Truncate:
		return wireTransform{Name: v.Name(), Features: v.Features, MaxLen: v.MaxLen}, nil
	default:
		return wireTransform{}, fmt.Errorf("dppnet: sparse transform %T is not wire-encodable", tr)
	}
}

func decodeSparseTransform(wt wireTransform) (reader.SparseTransform, error) {
	switch wt.Name {
	case reader.HashMod{}.Name():
		return reader.HashMod{Features: wt.Features, TableSize: wt.TableSize}, nil
	case reader.Clamp{}.Name():
		return reader.Clamp{Features: wt.Features, Min: wt.Min, Max: wt.Max}, nil
	case reader.Truncate{}.Name():
		return reader.Truncate{Features: wt.Features, MaxLen: wt.MaxLen}, nil
	default:
		return nil, fmt.Errorf("dppnet: unknown sparse transform %q", wt.Name)
	}
}

func encodeDenseTransform(tr reader.DenseTransform) (wireTransform, error) {
	switch tr.(type) {
	case reader.LogNormalize:
		return wireTransform{Name: tr.Name()}, nil
	default:
		return wireTransform{}, fmt.Errorf("dppnet: dense transform %T is not wire-encodable", tr)
	}
}

func decodeDenseTransform(wt wireTransform) (reader.DenseTransform, error) {
	switch wt.Name {
	case reader.LogNormalize{}.Name():
		return reader.LogNormalize{}, nil
	default:
		return nil, fmt.Errorf("dppnet: unknown dense transform %q", wt.Name)
	}
}

// encodeSpec converts a dpp.Spec to its wire form.
func encodeSpec(spec dpp.Spec) (*wireSpec, error) {
	ws := &wireSpec{
		Table:                spec.Table,
		BatchSize:            spec.BatchSize,
		SparseFeatures:       spec.SparseFeatures,
		DedupSparseFeatures:  spec.DedupSparseFeatures,
		PartialDedupFeatures: spec.PartialDedupFeatures,
		Readers:              spec.Readers,
		Buffer:               spec.Buffer,
		Files:                spec.Files,
		ShareScans:           spec.ShareScans,
		Follow:               spec.Follow,
	}
	for _, tr := range spec.SparseTransforms {
		wt, err := encodeSparseTransform(tr)
		if err != nil {
			return nil, err
		}
		ws.SparseTransforms = append(ws.SparseTransforms, wt)
	}
	for _, tr := range spec.DenseTransforms {
		wt, err := encodeDenseTransform(tr)
		if err != nil {
			return nil, err
		}
		ws.DenseTransforms = append(ws.DenseTransforms, wt)
	}
	return ws, nil
}

// decodeSpec rebuilds the dpp.Spec a client sent. Validation is left to
// dpp.Service.Open, which already rejects malformed specs.
func decodeSpec(ws *wireSpec) (dpp.Spec, error) {
	spec := dpp.Spec{
		Readers:    ws.Readers,
		Buffer:     ws.Buffer,
		Files:      ws.Files,
		ShareScans: ws.ShareScans,
		Follow:     ws.Follow,
	}
	spec.Table = ws.Table
	spec.BatchSize = ws.BatchSize
	spec.SparseFeatures = ws.SparseFeatures
	spec.DedupSparseFeatures = ws.DedupSparseFeatures
	spec.PartialDedupFeatures = ws.PartialDedupFeatures
	for _, wt := range ws.SparseTransforms {
		tr, err := decodeSparseTransform(wt)
		if err != nil {
			return dpp.Spec{}, err
		}
		spec.SparseTransforms = append(spec.SparseTransforms, tr)
	}
	for _, wt := range ws.DenseTransforms {
		tr, err := decodeDenseTransform(wt)
		if err != nil {
			return dpp.Spec{}, err
		}
		spec.DenseTransforms = append(spec.DenseTransforms, tr)
	}
	return spec, nil
}
