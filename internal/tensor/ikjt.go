package tensor

import (
	"fmt"
)

// IKJT is an InverseKeyedJaggedTensor (paper §4.2): a group of one or more
// feature keys whose per-row lists have been deduplicated by exact match.
// The deduplicated tensors store only the unique rows; a shared
// inverseLookup slice, with one entry per batch row, maps each original row
// to its unique entry.
//
// Grouped IKJTs hold multiple features that are updated synchronously
// across samples (e.g. item-ID and seller-ID of the same cart sequence) and
// therefore share a single inverseLookup. A batch row is deduplicated only
// if ALL features in the group match a prior row exactly, which maintains
// the shared-lookup invariant.
type IKJT struct {
	keys          []string
	tensors       []Jagged // one per key; Rows() == UniqueRows for all
	inverseLookup []int32  // len == batch size; values in [0, UniqueRows)
	batch         int
}

// DedupStats summarizes how effective deduplication was for one IKJT group.
type DedupStats struct {
	Batch          int // original batch rows
	UniqueRows     int // rows kept after dedup
	OriginalValues int // total values across group before dedup
	DedupValues    int // total values across group after dedup
}

// Factor returns the measured deduplication factor: original values length
// over deduplicated values length (paper §4.2 DedupeFactor). It reports 1
// when the group carried no values.
func (s DedupStats) Factor() float64 {
	if s.DedupValues == 0 {
		return 1
	}
	return float64(s.OriginalValues) / float64(s.DedupValues)
}

// Keys returns the ordered feature keys in this group.
func (ik *IKJT) Keys() []string { return ik.keys }

// NumKeys reports the number of features in the group.
func (ik *IKJT) NumKeys() int { return len(ik.keys) }

// Batch reports the original (logical) batch size.
func (ik *IKJT) Batch() int { return ik.batch }

// UniqueRows reports the number of rows kept after deduplication.
func (ik *IKJT) UniqueRows() int {
	if len(ik.tensors) == 0 {
		return 0
	}
	return ik.tensors[0].Rows()
}

// InverseLookup returns the shared inverse lookup slice. Callers must not
// mutate it.
func (ik *IKJT) InverseLookup() []int32 { return ik.inverseLookup }

// Deduped returns the deduplicated jagged tensor for key, or false.
func (ik *IKJT) Deduped(key string) (Jagged, bool) {
	for i, k := range ik.keys {
		if k == key {
			return ik.tensors[i], true
		}
	}
	return Jagged{}, false
}

// DedupedAt returns the i-th deduplicated tensor.
func (ik *IKJT) DedupedAt(i int) Jagged { return ik.tensors[i] }

// ToKJT expands the IKJT back to a KJT with the original batch size using
// jagged index selection (paper §5 "Jagged Index Select"). The expansion
// encodes exactly the same logical data the IKJT was built from.
func (ik *IKJT) ToKJT() *KJT {
	tensors := make([]Jagged, len(ik.tensors))
	for i, t := range ik.tensors {
		tensors[i] = JaggedIndexSelect(t, ik.inverseLookup)
	}
	kjt, err := NewKJT(ik.keys, tensors)
	if err != nil {
		panic(err) // unreachable: expansion preserves invariants
	}
	return kjt
}

// Feature expands a single key back to its full-batch jagged tensor.
func (ik *IKJT) Feature(key string) (Jagged, bool) {
	dd, ok := ik.Deduped(key)
	if !ok {
		return Jagged{}, false
	}
	return JaggedIndexSelect(dd, ik.inverseLookup), true
}

// Stats computes dedup statistics for the group, given the original (pre-
// dedup) total value count across all features in the group.
func (ik *IKJT) Stats(originalValues int) DedupStats {
	dedup := 0
	for _, t := range ik.tensors {
		dedup += t.NumValues()
	}
	return DedupStats{
		Batch:          ik.batch,
		UniqueRows:     ik.UniqueRows(),
		OriginalValues: originalValues,
		DedupValues:    dedup,
	}
}

// MeasuredFactor recomputes the dedup factor by expanding the IKJT: the
// ratio of expanded to stored values. It needs no external bookkeeping.
// One pass over the inverse lookup counts how often each unique row
// expands; every tensor then reuses those counts, making the walk
// O(batch + keys*unique) instead of O(keys*batch).
func (ik *IKJT) MeasuredFactor() float64 {
	counts := make([]int64, ik.UniqueRows())
	for _, u := range ik.inverseLookup {
		counts[u]++
	}
	var stored, expanded int64
	for _, t := range ik.tensors {
		stored += int64(t.NumValues())
		for u, c := range counts {
			expanded += c * int64(t.RowLen(u))
		}
	}
	if stored == 0 {
		return 1
	}
	return float64(expanded) / float64(stored)
}

// WireBytes reports the full transmission size (values + offsets for every
// feature, plus the shared inverse lookup). This is what readers send to
// trainers (paper §4.3).
func (ik *IKJT) WireBytes() int {
	total := len(ik.inverseLookup) * OffsetBytes
	for _, t := range ik.tensors {
		total += t.WireBytes()
	}
	return total
}

// SDDWireBytes reports the bytes sent during sparse data distribution:
// only values and offsets cross the network; inverse-lookup slices stay
// local to the originating GPU (paper §5 "Sparse Data Distribution").
func (ik *IKJT) SDDWireBytes() int {
	total := 0
	for _, t := range ik.tensors {
		total += t.WireBytes()
	}
	return total
}

// Validate checks the IKJT invariants: every tensor is a valid jagged
// tensor with UniqueRows rows, every inverse-lookup entry is in range, and
// the group is non-empty.
func (ik *IKJT) Validate() error { return ik.validate(true) }

// validate is Validate, checking each tensor's own structure only when
// tensors is set: a Decoder has checked every tensor as it read it.
func (ik *IKJT) validate(tensors bool) error {
	if len(ik.keys) == 0 {
		return fmt.Errorf("tensor: ikjt has no keys")
	}
	if len(ik.keys) != len(ik.tensors) {
		return fmt.Errorf("tensor: ikjt has %d keys but %d tensors", len(ik.keys), len(ik.tensors))
	}
	unique := ik.UniqueRows()
	for i, t := range ik.tensors {
		if tensors {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("tensor: ikjt key %q: %w", ik.keys[i], err)
			}
		}
		if t.Rows() != unique {
			return fmt.Errorf("tensor: ikjt key %q has %d unique rows, want %d", ik.keys[i], t.Rows(), unique)
		}
	}
	if len(ik.inverseLookup) != ik.batch {
		return fmt.Errorf("tensor: ikjt inverse lookup has %d entries, want %d", len(ik.inverseLookup), ik.batch)
	}
	for row, u := range ik.inverseLookup {
		if u < 0 || int(u) >= unique {
			return fmt.Errorf("tensor: ikjt inverse lookup[%d]=%d out of range [0,%d)", row, u, unique)
		}
	}
	return nil
}

// MapDeduped returns a new IKJT in which the deduplicated tensor of key
// has been replaced by fn's output. This is the primitive behind the
// paper's transparent preprocessing wrappers (§4.3): a transform written
// against KJT offsets/values runs over the deduplicated slices only. The
// replacement must keep the same number of unique rows (row lengths may
// change, e.g. truncation).
func (ik *IKJT) MapDeduped(key string, fn func(Jagged) Jagged) (*IKJT, error) {
	idx := -1
	for i, k := range ik.keys {
		if k == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("tensor: ikjt has no key %q", key)
	}
	out := fn(ik.tensors[idx])
	if out.Rows() != ik.UniqueRows() {
		return nil, fmt.Errorf("tensor: transform changed unique rows for %q: %d -> %d",
			key, ik.UniqueRows(), out.Rows())
	}
	tensors := append([]Jagged(nil), ik.tensors...)
	tensors[idx] = out
	return &IKJT{
		keys:          append([]string(nil), ik.keys...),
		tensors:       tensors,
		inverseLookup: ik.inverseLookup,
		batch:         ik.batch,
	}, nil
}

// ikjtFromParts builds an IKJT from decoded parts, validating the
// invariants the Decoder has not already checked tensor by tensor.
func ikjtFromParts(keys []string, tensors []Jagged, inverse []int32) (*IKJT, error) {
	ik := &IKJT{keys: keys, tensors: tensors, inverseLookup: inverse, batch: len(inverse)}
	if err := ik.validate(false); err != nil {
		return nil, err
	}
	return ik, nil
}
