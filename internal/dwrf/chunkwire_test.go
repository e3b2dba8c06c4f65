package dwrf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// TestChunkCodecMatchesRowView holds the chunk wire codec to the row path
// it replaced on the dppnet unit frame, which shipped a chunk's rows
// (Samples) and regathered them on the other side (ChunkFromSamples). Over
// random chunks — any projection in any order, zero rows, zero dense
// width, windows of larger chunks — the decoded chunk must be the one the
// row path would have built, re-encode to the same bytes from either face
// of the decoder, and own its memory. Then the codec as hostile input:
// every truncation fails cleanly, and a forged count costs no more than
// the bytes that came with it.
func TestChunkCodecMatchesRowView(t *testing.T) {
	schema := testSchema()
	keys := schema.SparseKeys()
	rng := rand.New(rand.NewSource(21))
	cutChunks := 0
	for trial := 0; trial < 200; trial++ {
		cols := rng.Perm(len(keys))[:rng.Intn(len(keys)+1)]
		width := []int{0, 3, schema.Dense}[rng.Intn(3)]
		whole, err := ChunkFromSamples(randomSamples(rng, schema, rng.Intn(60)), keys, width, cols)
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.Intn(whole.Rows() + 1)
		c := whole.Slice(lo, lo+rng.Intn(whole.Rows()-lo+1))

		prefix := []byte("frame header")
		enc := c.AppendTo(prefix)
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("trial %d: AppendTo wrote over what dst held", trial)
		}
		enc = enc[len(prefix):]
		want := bytes.Clone(enc)

		ref, err := ChunkFromSamples(c.Samples(), keys, width, cols)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.AppendTo(nil), want) {
			t.Fatalf("trial %d: the chunk regathered from its rows encodes differently", trial)
		}

		d := tensor.NewDecoder(enc)
		got, err := DecodeChunk(&d, keys, width, cols)
		if err != nil || len(d.Rest()) != 0 {
			t.Fatalf("trial %d: decode of %d rows, width %d, columns %v: %v, %d bytes left", trial, c.Rows(), width, cols, err, len(d.Rest()))
		}
		for i := range enc {
			enc[i] = 0xFF // the decoded chunk must not be a view of the frame
		}
		if got.Rows() != ref.Rows() || got.DenseWidth() != width || !slices.Equal(got.Columns(), cols) || !slices.Equal(got.Keys(), keys) {
			t.Fatalf("trial %d: decoded %d rows, width %d, columns %v; want %d, %d, %v", trial, got.Rows(), got.DenseWidth(), got.Columns(), ref.Rows(), width, cols)
		}
		gotRows, refRows := got.Samples(), ref.Samples()
		for i := range refRows {
			if !samplesEqual(gotRows[i], refRows[i]) {
				t.Fatalf("trial %d: decoded row %d differs from the row path's", trial, i)
			}
		}
		if !bytes.Equal(got.AppendTo(nil), want) {
			t.Fatalf("trial %d: the decoded chunk re-encodes differently", trial)
		}
		// A later file's rows are appended to carried ones: the decoded
		// chunk has to be a chunk Append takes.
		if err := owned(t, got).Append(ref); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		rd := tensor.NewReaderDecoder(bytes.NewReader(want))
		fromReader, err := DecodeChunk(&rd, keys, width, cols)
		rd.Release()
		if err != nil || !bytes.Equal(fromReader.AppendTo(nil), want) {
			t.Fatalf("trial %d: the reader face decodes differently (%v)", trial, err)
		}

		// Every cut of the smaller chunks (each cut is a decode: quadratic).
		if len(want) > 4<<10 {
			continue
		}
		if c.Rows() > 0 && len(cols) > 0 {
			cutChunks++
		}
		for cut := 0; cut < len(want); cut++ {
			d := tensor.NewDecoder(want[:cut:cut])
			if _, err := DecodeChunk(&d, keys, width, cols); err == nil {
				t.Fatalf("trial %d: %d of %d bytes decoded as a whole chunk", trial, cut, len(want))
			}
		}
	}

	if cutChunks < 20 {
		t.Fatalf("only %d chunks with rows and sparse columns were small enough to truncate at every offset", cutChunks)
	}

	// Forgeries. Each claims far more than it carries; none may cost more
	// than what it carries (plus the chunk header and the error).
	whole, err := ChunkFromSamples(randomSamples(rng, schema, 40), keys, 0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	enc := whole.AppendTo(nil)
	jaggedAt := len(enc) - len(tensor.AppendJagged(nil, whole.Jagged(0)))
	huge := func(dst []byte, n uint64) []byte { return binary.AppendUvarint(dst, n) }
	for name, forged := range map[string][]byte{
		// 2^23 rows pass the row bound at dense width 0; the metadata
		// columns say so too, with no bytes behind them.
		"rows and metadata": huge(huge(nil, 1<<23), 1<<23),
		// A row count the honest columns behind it do not back.
		"rows": append(huge(nil, 1<<23), enc[1:]...),
		// An honest chunk up to its sparse column, whose value count lies.
		"sparse values": huge(enc[:jaggedAt+1:jaggedAt+1], 1<<24),
		// Values honest, offsets claiming a row per byte of a large frame.
		"sparse offsets": huge(tensor.AppendValues(enc[:jaggedAt+1:jaggedAt+1], nil), 1<<24),
	} {
		const slack = 2 << 10
		var before, after runtime.MemStats
		grew := ^uint64(0) // TotalAlloc is process-wide; the best of three runs is this call's
		for try := 0; try < 3; try++ {
			d := tensor.NewDecoder(forged)
			runtime.ReadMemStats(&before)
			_, err := DecodeChunk(&d, keys, 0, []int{2})
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: a forged chunk of %d bytes decoded", name, len(forged))
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(len(forged) + slack); grew > limit {
			t.Fatalf("%s: decoding %d forged bytes allocated %d, more than arrived (+%d)", name, len(forged), grew, slack)
		}
	}
}
