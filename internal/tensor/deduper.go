package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// Deduper performs grouped exact-match row deduplication (the reader-side
// duplicate detection of paper §6.3) with no per-batch table allocation.
// It owns an open-addressed int32 hash table plus scratch slices that are
// reset — not reallocated — between batches, so a reader converting a
// stream of batches pays the table cost once and amortizes it forever.
//
// Reuse contract: the IKJT returned by Dedup never retains references into
// the Deduper's scratch storage; its inverse lookup, value, and offset
// slices are freshly allocated at their exact final sizes. Callers may
// therefore hold earlier outputs indefinitely while continuing to call
// Dedup. A Deduper is NOT safe for concurrent use; give each worker its
// own (the reader pipeline keeps one per dedup group).
type Deduper struct {
	// table is the open-addressed hash table: 0 means empty, otherwise the
	// stored value is uniqueIndex+1. Cleared (memclr) between batches.
	table []int32
	// hashes holds the per-batch-row group hash.
	hashes []uint64
	// firstRow maps each unique index to the first batch row carrying that
	// row group, so equality probes compare against the input tensors
	// directly instead of an incrementally built copy.
	firstRow []int32
}

// NewDeduper returns an empty Deduper; storage grows on first use.
func NewDeduper() *Deduper { return &Deduper{} }

// Multiplicative mixing constants (splitmix64 finalizer family). The hash
// consumes one 64-bit multiply per value instead of the eight byte-wise
// FNV rounds the seed implementation spent, and correctness never depends
// on hash quality: collisions fall through to full row comparison.
const (
	mixMul1 = 0xff51afd7ed558ccd
	mixMul2 = 0xc4ceb9fe1a85ec53
)

func mix64(h, v uint64) uint64 {
	h ^= v
	h *= mixMul1
	h ^= h >> 33
	return h
}

// hashRowGroup hashes row `row` across all features of a group,
// word-at-a-time over the uint64 values. Row lengths are folded in so
// [1,2]+[3] cannot collide with [1]+[2,3] across feature boundaries.
func hashRowGroup(features []Jagged, row int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for fi := range features {
		start, end := features[fi].RowBounds(row)
		h = mix64(h, uint64(end-start))
		for _, v := range features[fi].Values[start:end] {
			h = mix64(h, uint64(v))
		}
	}
	h *= mixMul2
	h ^= h >> 29
	return h
}

// rowGroupEqual reports whether batch rows a and b are identical across
// every feature of the group.
func rowGroupEqual(features []Jagged, a, b int) bool {
	for fi := range features {
		as, ae := features[fi].RowBounds(a)
		bs, be := features[fi].RowBounds(b)
		if ae-as != be-bs {
			return false
		}
		av, bv := features[fi].Values[as:ae], features[fi].Values[bs:be]
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// reset prepares the scratch storage for a batch of the given size.
func (d *Deduper) reset(batch int) {
	// Load factor <= 0.5: table has at least 2*batch power-of-two slots.
	need := 4
	if batch > 2 {
		need = 1 << bits.Len(uint(2*batch-1))
	}
	if len(d.table) < need {
		d.table = make([]int32, need)
	} else {
		clear(d.table)
	}
	if cap(d.hashes) < batch {
		d.hashes = make([]uint64, batch)
		d.firstRow = make([]int32, batch)
	}
	d.hashes = d.hashes[:batch]
	d.firstRow = d.firstRow[:batch]
}

// Dedup deduplicates a parallel set of jagged tensors (one per key,
// identical row counts) into a grouped IKJT. A batch row deduplicates only
// if ALL features in the group match a prior row exactly, which maintains
// the shared inverse-lookup invariant.
func (d *Deduper) Dedup(keys []string, features []Jagged) (*IKJT, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("tensor: dedup: empty key group")
	}
	if len(keys) != len(features) {
		return nil, fmt.Errorf("tensor: dedup: %d keys but %d tensors", len(keys), len(features))
	}
	batch := features[0].Rows()
	for i := 1; i < len(features); i++ {
		if features[i].Rows() != batch {
			return nil, fmt.Errorf("tensor: dedup: key %q has %d rows, want %d", keys[i], features[i].Rows(), batch)
		}
	}

	d.reset(batch)
	mask := uint64(len(d.table) - 1)
	inverse := make([]int32, batch)
	next := int32(0)

	// Pass 1: hash + probe. The table stores unique indices; equality
	// probes compare candidate rows inside the input features, so no
	// unique copy is built yet.
	for row := 0; row < batch; row++ {
		h := hashRowGroup(features, row)
		d.hashes[row] = h
		slot := h & mask
		for {
			cand := d.table[slot]
			if cand == 0 {
				d.table[slot] = next + 1
				d.firstRow[next] = int32(row)
				inverse[row] = next
				next++
				break
			}
			u := cand - 1
			first := int(d.firstRow[u])
			if d.hashes[first] == h && rowGroupEqual(features, row, first) {
				inverse[row] = u
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Pass 2: bulk-copy the unique rows into exactly-sized buffers.
	uniques := make([]Jagged, len(features))
	firstRows := d.firstRow[:next]
	for fi := range features {
		total := 0
		for _, row := range firstRows {
			total += features[fi].RowLen(int(row))
		}
		values := make([]Value, total)
		offsets := make([]int32, next)
		pos := 0
		for ui, row := range firstRows {
			offsets[ui] = int32(pos)
			start, end := features[fi].RowBounds(int(row))
			pos += copy(values[pos:], features[fi].Values[start:end])
		}
		uniques[fi] = Jagged{Values: values, Offsets: offsets}
	}

	return &IKJT{
		keys:          append([]string(nil), keys...),
		tensors:       uniques,
		inverseLookup: inverse,
		batch:         batch,
	}, nil
}

// deduperPool backs the package-level DedupJagged convenience entry point
// so one-shot callers still amortize table allocation across calls.
var deduperPool = sync.Pool{New: func() any { return NewDeduper() }}

// DedupJagged deduplicates a parallel set of jagged tensors (one per key,
// identical row counts) into a grouped IKJT using a pooled Deduper.
func DedupJagged(keys []string, features []Jagged) (*IKJT, error) {
	d := deduperPool.Get().(*Deduper)
	ik, err := d.Dedup(keys, features)
	deduperPool.Put(d)
	return ik, err
}
