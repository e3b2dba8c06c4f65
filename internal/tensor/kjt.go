package tensor

import (
	"fmt"
)

// KJT is a KeyedJaggedTensor: an ordered collection of jagged tensors, one
// per feature key, all sharing the same batch dimension. It is the baseline
// sparse-batch format used by the reader and trainer tiers (paper §4.2).
type KJT struct {
	keys    []string
	tensors []Jagged
	index   map[string]int
}

// NewKJT builds a KJT from parallel key/tensor slices. All tensors must
// share the same number of rows.
func NewKJT(keys []string, tensors []Jagged) (*KJT, error) {
	if len(keys) != len(tensors) {
		return nil, fmt.Errorf("tensor: %d keys but %d tensors", len(keys), len(tensors))
	}
	k := &KJT{
		keys:    append([]string(nil), keys...),
		tensors: append([]Jagged(nil), tensors...),
		index:   make(map[string]int, len(keys)),
	}
	rows := -1
	for i, key := range k.keys {
		if _, dup := k.index[key]; dup {
			return nil, fmt.Errorf("tensor: duplicate key %q", key)
		}
		k.index[key] = i
		if rows == -1 {
			rows = k.tensors[i].Rows()
		} else if k.tensors[i].Rows() != rows {
			return nil, fmt.Errorf("tensor: key %q has %d rows, want %d", key, k.tensors[i].Rows(), rows)
		}
	}
	return k, nil
}

// MustKJT is NewKJT that panics on error; for tests and literals.
func MustKJT(keys []string, tensors []Jagged) *KJT {
	k, err := NewKJT(keys, tensors)
	if err != nil {
		panic(err)
	}
	return k
}

// Keys returns the ordered feature keys. Callers must not mutate it.
func (k *KJT) Keys() []string { return k.keys }

// NumKeys reports the number of features.
func (k *KJT) NumKeys() int { return len(k.keys) }

// Rows reports the batch size. A KJT with no keys has zero rows.
func (k *KJT) Rows() int {
	if len(k.tensors) == 0 {
		return 0
	}
	return k.tensors[0].Rows()
}

// Feature returns the jagged tensor for key, or false if absent.
func (k *KJT) Feature(key string) (Jagged, bool) {
	i, ok := k.index[key]
	if !ok {
		return Jagged{}, false
	}
	return k.tensors[i], true
}

// FeatureAt returns the i-th feature tensor.
func (k *KJT) FeatureAt(i int) Jagged { return k.tensors[i] }

// WireBytes reports the total transmission size across all features.
func (k *KJT) WireBytes() int {
	total := 0
	for _, t := range k.tensors {
		total += t.WireBytes()
	}
	return total
}

// Equal reports whether both KJTs hold the same keys in the same order with
// identical tensors.
func (k *KJT) Equal(o *KJT) bool {
	if k.NumKeys() != o.NumKeys() {
		return false
	}
	for i := range k.keys {
		if k.keys[i] != o.keys[i] || !k.tensors[i].Equal(o.tensors[i]) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants across all features.
func (k *KJT) Validate() error {
	rows := k.Rows()
	for i, t := range k.tensors {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("tensor: key %q: %w", k.keys[i], err)
		}
		if t.Rows() != rows {
			return fmt.Errorf("tensor: key %q has %d rows, want %d", k.keys[i], t.Rows(), rows)
		}
	}
	return nil
}
