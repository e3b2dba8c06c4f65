package reader

import (
	"fmt"

	"repro/internal/tensor"
)

// Batch is one preprocessed training batch as shipped from a reader to a
// trainer: dense features, labels, plain sparse features as a KJT, and one
// IKJT per dedup group from the spec.
type Batch struct {
	// Size is the number of logical rows (samples).
	Size int
	// Dense is the Size×D dense feature matrix.
	Dense tensor.Dense
	// Labels holds one label per row.
	Labels []float32
	// KJT carries the non-deduplicated sparse features; nil when the spec
	// lists none.
	KJT *tensor.KJT
	// IKJTs carries one grouped IKJT per spec.DedupSparseFeatures entry,
	// in spec order.
	IKJTs []*tensor.IKJT
	// Partials carries one partial IKJT per spec.PartialDedupFeatures
	// entry (§7): shift-deduplicated sequence features.
	Partials []*tensor.PartialIKJT
	// OriginalSparseValues is the pre-dedup total value count across all
	// sparse features in the batch, for dedup-factor reporting.
	OriginalSparseValues int
}

// WireBytes reports the bytes a reader sends to a trainer for this batch:
// dense floats, labels, KJT values+offsets, and IKJT values+offsets+
// inverse lookups. Deduplication shrinks this (O4's reader→trainer
// network saving).
func (b *Batch) WireBytes() int {
	total := b.Dense.WireBytes() + 4*len(b.Labels)
	if b.KJT != nil {
		total += b.KJT.WireBytes()
	}
	for _, ik := range b.IKJTs {
		total += ik.WireBytes()
	}
	for _, p := range b.Partials {
		total += p.WireBytes()
	}
	return total
}

// Feature returns the full-batch jagged tensor for a key, expanding from
// an IKJT if the key was deduplicated.
func (b *Batch) Feature(key string) (tensor.Jagged, bool) {
	if b.KJT != nil {
		if j, ok := b.KJT.Feature(key); ok {
			return j, true
		}
	}
	for _, ik := range b.IKJTs {
		if j, ok := ik.Feature(key); ok {
			return j, true
		}
	}
	for _, p := range b.Partials {
		if p.Key == key {
			return p.ToJagged(), true
		}
	}
	return tensor.Jagged{}, false
}

// Validate checks batch invariants: every tensor valid, consistent row
// counts everywhere.
func (b *Batch) Validate() error { return b.validate(true) }

// validate is Validate, checking each KJT, IKJT and partial's own
// structure only when parts is set: a tensor.Decoder has checked every
// part as it read it, so a decoded batch checks only its row counts.
func (b *Batch) validate(parts bool) error {
	if len(b.Labels) != b.Size {
		return fmt.Errorf("reader: batch has %d labels for %d rows", len(b.Labels), b.Size)
	}
	if b.Dense.RowsN != b.Size && b.Dense.Cols > 0 {
		return fmt.Errorf("reader: dense matrix has %d rows for %d samples", b.Dense.RowsN, b.Size)
	}
	if b.KJT != nil {
		if parts {
			if err := b.KJT.Validate(); err != nil {
				return err
			}
		}
		if b.KJT.NumKeys() > 0 && b.KJT.Rows() != b.Size {
			return fmt.Errorf("reader: kjt has %d rows for %d samples", b.KJT.Rows(), b.Size)
		}
	}
	for gi, ik := range b.IKJTs {
		if parts {
			if err := ik.Validate(); err != nil {
				return fmt.Errorf("reader: ikjt group %d: %w", gi, err)
			}
		}
		if ik.Batch() != b.Size {
			return fmt.Errorf("reader: ikjt group %d has batch %d for %d samples", gi, ik.Batch(), b.Size)
		}
	}
	for _, p := range b.Partials {
		if parts {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("reader: partial %q: %w", p.Key, err)
			}
		}
		if p.Rows() != b.Size {
			return fmt.Errorf("reader: partial %q has %d rows for %d samples", p.Key, p.Rows(), b.Size)
		}
	}
	return nil
}
