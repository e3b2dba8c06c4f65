// Package reader implements the stateless reader tier of the training
// pipeline (paper §2.1, Fig 5): each reader fills batches of rows from
// storage, converts them to tensors (KJTs, and IKJTs for the feature
// groups named in the DataLoader spec — O3), and preprocesses them with
// user transforms before they are sent to trainers (O4).
//
// Every stage charges its work to per-stage CPU-time and work counters so
// the paper's reader experiments (Fig 10 CPU breakdown, Table 3
// ingest/egress bytes) can be regenerated.
package reader

import (
	"fmt"
	"strings"
)

// Spec is the DataLoader specification a training job submits: which
// features it consumes, which of them to deduplicate (and how to group
// them), and which preprocessing transforms to run at the readers.
type Spec struct {
	// Table is the dataset table to scan.
	Table string
	// BatchSize is the number of rows per training batch.
	BatchSize int
	// SparseFeatures are consumed as plain KJTs.
	SparseFeatures []string
	// DedupSparseFeatures is the paper's dedup_sparse_features field: a
	// list of feature groups, each deduplicated into one (grouped) IKJT.
	DedupSparseFeatures [][]string
	// PartialDedupFeatures are converted to partial IKJTs (§7), which
	// also deduplicate shifted windows of sequence features. Only
	// element-wise transforms may target them.
	PartialDedupFeatures []string
	// SparseTransforms are applied to sparse features at the readers
	// after conversion, standing in for TorchScript modules.
	SparseTransforms []SparseTransform
	// DenseTransforms are applied to the dense feature matrix.
	DenseTransforms []DenseTransform
}

// Validate checks internal consistency: no feature may appear twice across
// the KJT list and the dedup groups, groups must be non-empty, and
// transforms must reference consumed features.
func (s Spec) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("reader: spec has no table")
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("reader: batch size %d", s.BatchSize)
	}
	seen := map[string]bool{}
	for _, k := range s.SparseFeatures {
		if seen[k] {
			return fmt.Errorf("reader: feature %q listed twice", k)
		}
		seen[k] = true
	}
	for gi, g := range s.DedupSparseFeatures {
		if len(g) == 0 {
			return fmt.Errorf("reader: dedup group %d is empty", gi)
		}
		for _, k := range g {
			if seen[k] {
				return fmt.Errorf("reader: feature %q listed twice", k)
			}
			seen[k] = true
		}
	}
	for _, k := range s.PartialDedupFeatures {
		if seen[k] {
			return fmt.Errorf("reader: feature %q listed twice", k)
		}
		seen[k] = true
	}
	for _, tr := range s.SparseTransforms {
		for _, k := range tr.Keys() {
			if !seen[k] {
				return fmt.Errorf("reader: transform %q references unconsumed feature %q", tr.Name(), k)
			}
		}
	}
	return nil
}

// ConsumedFeatures returns every sparse feature the spec reads: KJT
// features first, then dedup groups in order, then partial features.
func (s Spec) ConsumedFeatures() []string {
	out := append([]string(nil), s.SparseFeatures...)
	for _, g := range s.DedupSparseFeatures {
		out = append(out, g...)
	}
	out = append(out, s.PartialDedupFeatures...)
	return out
}

// IsPartial reports whether key is consumed as a partial IKJT.
func (s Spec) IsPartial(key string) bool {
	for _, k := range s.PartialDedupFeatures {
		if k == key {
			return true
		}
	}
	return false
}

// Fingerprint returns a canonical string covering exactly the spec
// fields that determine batch output for a given input file: batch size,
// feature lists, dedup grouping, and the transforms with their
// parameters. Two specs with equal fingerprints produce byte-identical
// batches from identical rows, which is what makes the fingerprint a
// sound cache-key component for cross-session scan sharing
// (dpp.ScanCache keys entries by (file, fingerprint)).
//
// Deliberately excluded: Table (it only resolves the scan set — the file
// path is the other key half). Every other field is covered: the spec has no
// execution options.
//
// Transforms are fingerprinted by their Go type and printed value, so
// custom SparseTransform/DenseTransform implementations must be value
// types whose %+v representation captures their behaviour — true of any
// plain parameter struct, including all transforms in this package.
func (s Spec) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch=%d;sparse=%q;dedup=%q;partial=%q;st=[",
		s.BatchSize, s.SparseFeatures, s.DedupSparseFeatures, s.PartialDedupFeatures)
	for _, tr := range s.SparseTransforms {
		fmt.Fprintf(&b, "%T%+v;", tr, tr)
	}
	b.WriteString("];dt=[")
	for _, tr := range s.DenseTransforms {
		fmt.Fprintf(&b, "%T%+v;", tr, tr)
	}
	b.WriteString("]")
	return b.String()
}

// DedupGroupOf returns the index of the dedup group containing key, or -1.
func (s Spec) DedupGroupOf(key string) int {
	for gi, g := range s.DedupSparseFeatures {
		for _, k := range g {
			if k == key {
				return gi
			}
		}
	}
	return -1
}
