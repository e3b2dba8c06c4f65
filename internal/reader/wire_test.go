package reader

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func collectBatches(t *testing.T, env *testEnv, spec Spec) []*Batch {
	t.Helper()
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles(spec.Table)
	var batches []*Batch
	if err := r.Run(context.Background(), files, func(b *Batch) error {
		batches = append(batches, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return batches
}

func TestBatchWireRoundTrip(t *testing.T) {
	env := newTestEnv(t, 25, true)
	spec := baseSpec()
	spec.DedupSparseFeatures = [][]string{{"user_seq_0", "user_seq_1"}}
	spec.PartialDedupFeatures = []string{"user_elem_0"}
	spec.SparseFeatures = []string{"item_0", "item_1", "user_elem_1", "user_elem_2"}

	for _, b := range collectBatches(t, env, spec) {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != b.Size || len(got.Labels) != len(b.Labels) {
			t.Fatalf("shape mismatch after round trip")
		}
		for i := range b.Labels {
			if got.Labels[i] != b.Labels[i] {
				t.Fatal("labels differ")
			}
		}
		for _, key := range spec.ConsumedFeatures() {
			want, _ := b.Feature(key)
			have, ok := got.Feature(key)
			if !ok || !have.Equal(want) {
				t.Fatalf("feature %q differs after round trip", key)
			}
		}
		if got.OriginalSparseValues != b.OriginalSparseValues {
			t.Fatal("original value count differs")
		}
	}
}

// narrowBytes counts, one field at a time, the bytes the wire's narrow
// encoding of b takes: every integer block (values, row lengths, inverse
// and partial lookups) a count, a width byte, a zigzag base and each
// integer's offset over the base in the fewest bytes that hold the span —
// the cells' own width over base 0 when that is what the span needs — and
// every float cell four bytes.
func narrowBytes(b *Batch) int {
	uv := func(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
	block := func(vals []int64, cell int) int {
		if len(vals) == 0 {
			return uv(0) + 1
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		w := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
		w = max(w, 1)
		if w == cell && (w == 8 || lo >= 0) {
			lo = 0
		}
		return uv(len(vals)) + 1 + len(binary.AppendVarint(nil, lo)) + len(vals)*w
	}
	ints := func(vals []int32) []int64 {
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = int64(v)
		}
		return out
	}
	jagged := func(j tensor.Jagged) int {
		lengths := make([]int64, j.Rows())
		for i := range lengths {
			lengths[i] = int64(j.RowLen(i))
		}
		return 1 + block(j.Values, 8) + block(lengths, 4)
	}
	keyed := func(keys []string, at func(int) tensor.Jagged) int {
		n := 1 + uv(len(keys))
		for i, k := range keys {
			n += uv(len(k)) + len(k) + jagged(at(i))
		}
		return n
	}
	n := len(batchMagic) + uv(b.Size)
	n += 1 + uv(b.Dense.RowsN) + uv(b.Dense.Cols) + 4*len(b.Dense.Data)
	n += uv(len(b.Labels)) + 4*len(b.Labels) + 1
	if b.KJT != nil {
		n += keyed(b.KJT.Keys(), b.KJT.FeatureAt)
	}
	n += uv(len(b.IKJTs))
	for _, ik := range b.IKJTs {
		n += keyed(ik.Keys(), ik.DedupedAt) + block(ints(ik.InverseLookup()), 4)
	}
	n += uv(len(b.Partials))
	for _, p := range b.Partials {
		var flat []int32
		for _, w := range p.Lookup {
			flat = append(flat, w[0], w[1])
		}
		n += 1 + uv(len(p.Key)) + len(p.Key) + block(p.Values, 8) + block(ints(flat), 4)
	}
	return n + uv(b.OriginalSparseValues)
}

// TestWireBytesMatchEncoding holds the encoded batch to two exact counts:
// its length is narrowBytes', field by field, and it never exceeds the
// analytic WireBytes accounting (Table 3's "Send Bytes", every ID eight
// bytes, every offset and lookup four), which the narrow encoding can
// only undercut.
func TestWireBytesMatchEncoding(t *testing.T) {
	env := newTestEnv(t, 40, true)
	mixed := baseSpec()
	mixed.DedupSparseFeatures = [][]string{{"user_seq_0", "user_seq_1"}}
	mixed.PartialDedupFeatures = []string{"user_elem_0"}
	mixed.SparseFeatures = []string{"item_0", "item_1", "user_elem_1", "user_elem_2"}
	for _, spec := range []Spec{baseSpec(), mixed} {
		for _, b := range collectBatches(t, env, spec) {
			var buf bytes.Buffer
			if err := b.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if want := narrowBytes(b); buf.Len() != want {
				t.Fatalf("encoded %d bytes, the narrow encoding counts %d", buf.Len(), want)
			}
			if buf.Len() > b.WireBytes() {
				t.Fatalf("encoded %d bytes, more than the analytic %d", buf.Len(), b.WireBytes())
			}
		}
	}
}

// TestWireDedupSavingsReal: the encoded dedup batches are genuinely
// smaller on the wire than the same data as plain KJTs.
func TestWireDedupSavingsReal(t *testing.T) {
	env := newTestEnv(t, 40, true)

	encoded := func(spec Spec) int {
		total := 0
		for _, b := range collectBatches(t, env, spec) {
			var buf bytes.Buffer
			if err := b.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			total += buf.Len()
		}
		return total
	}

	dedup := baseSpec()
	kjt := dedup
	kjt.DedupSparseFeatures = nil
	kjt.SparseFeatures = dedup.ConsumedFeatures()

	d, k := encoded(dedup), encoded(kjt)
	if d >= k {
		t.Fatalf("encoded dedup batches %d not smaller than KJT %d", d, k)
	}
	t.Logf("encoded bytes: kjt %d, ikjt %d (%.2fx)", k, d, float64(k)/float64(d))
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, err := DecodeBatch(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := DecodeBatch(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Truncated payloads fail cleanly.
	env := newTestEnv(t, 10, true)
	b := collectBatches(t, env, baseSpec())[0]
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 1} {
		if _, err := DecodeBatch(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	// DecodeBatch reads its input to the end: a byte after the batch fails.
	if _, err := DecodeBatch(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Fatal("a batch followed by a byte decoded without error")
	}
}
