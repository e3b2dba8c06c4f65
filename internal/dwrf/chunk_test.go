package dwrf

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// writeFile encodes samples into one in-memory file.
func writeFile(t testing.TB, schema *datagen.Schema, samples []datagen.Sample, stripeRows int) ([]byte, FileStats) {
	t.Helper()
	w, err := NewFileWriter(schema, WriterOptions{StripeRows: stripeRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	data, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, stats
}

// forgeFooter replaces a file's footer with one built from the given
// stripe directory entries, keeping its schema section.
func forgeFooter(t *testing.T, data []byte, stripes [][3]uint64, dense uint64) []byte {
	t.Helper()
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var footer []byte
	footer = putUvarint(footer, uint64(len(stripes)))
	for _, st := range stripes {
		for _, v := range st {
			footer = putUvarint(footer, v)
		}
	}
	footer = putUvarint(footer, uint64(len(r.keys)))
	for _, k := range r.keys {
		footer = putUvarint(footer, uint64(len(k)))
		footer = append(footer, k...)
	}
	footer = putUvarint(footer, dense)
	out := append([]byte(nil), data[:r.body]...)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	return append(out, magic...)
}

// TestHostileFooter: a forged stripe directory or dense width is refused
// at open. The first case is the reported reproducer — offset 2^64-2 plus
// length 4 wraps past the bound the old reader checked, opened cleanly,
// and panicked in ReadAll with "slice bounds out of range [-2:]".
func TestHostileFooter(t *testing.T) {
	schema := testSchema()
	data, _ := writeFile(t, schema, testSamples(t, schema, 6), 16)
	good, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if good.NumStripes() < 2 {
		t.Fatalf("need 2 stripes, have %d", good.NumStripes())
	}
	s0, s1 := good.stripes[0], good.stripes[1]
	entry := func(s stripeInfo) [3]uint64 {
		return [3]uint64{uint64(s.offset), uint64(s.length), uint64(s.rows)}
	}
	cases := map[string]struct {
		stripes [][3]uint64
		dense   uint64
	}{
		"offset+length wraps":  {[][3]uint64{{^uint64(0) - 1, 4, 1}}, uint64(good.dense)},
		"length past body":     {[][3]uint64{{uint64(s0.offset), uint64(good.body), 1}}, uint64(good.dense)},
		"offset inside magic":  {[][3]uint64{{0, 8, 1}}, uint64(good.dense)},
		"stripes out of order": {[][3]uint64{entry(s1), entry(s0)}, uint64(good.dense)},
		"stripes overlap":      {[][3]uint64{entry(s0), {uint64(s0.offset) + 1, 4, 1}}, uint64(good.dense)},
		"dense width forged":   {[][3]uint64{entry(s0), entry(s1)}, maxDense + 1},
		"row count forged":     {[][3]uint64{{uint64(s0.offset), uint64(s0.length), maxStripeRows + 1}}, uint64(good.dense)},
	}
	for name, c := range cases {
		r, err := OpenReader(forgeFooter(t, data, c.stripes, c.dense))
		if err == nil {
			_, err = r.ReadAll()
			t.Errorf("%s: opened cleanly (ReadAll: %v)", name, err)
		}
	}

	// A directory that is in bounds but lies about a stripe's rows opens,
	// and fails at read instead of sizing anything by the lie.
	r, err := OpenReader(forgeFooter(t, data, [][3]uint64{{uint64(s0.offset), uint64(s0.length), uint64(s0.rows) + 1}}, uint64(good.dense)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); err == nil || !strings.Contains(err.Error(), "footer records") {
		t.Fatalf("ReadAll over a lying row count: %v", err)
	}
}

// fetchLog is a Fetch over an in-memory file that records every range.
type fetchLog struct {
	data   []byte
	ranges [][2]int64
}

func (f *fetchLog) fetch(off, n int64) ([]byte, error) {
	f.ranges = append(f.ranges, [2]int64{off, off + n})
	return FetchFrom(f.data)(off, n)
}

// bytes checks no byte was fetched twice and returns the bytes fetched.
func (f *fetchLog) bytes(t *testing.T) int64 {
	t.Helper()
	sorted := append([][2]int64(nil), f.ranges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	for i, r := range sorted {
		if i > 0 && r[0] < sorted[i-1][1] {
			t.Fatalf("bytes [%d,%d) fetched twice (ranges %v)", r[0], min(r[1], sorted[i-1][1]), sorted)
		}
		total += r[1] - r[0]
	}
	return total
}

// TestReadColumnsProjection: for random files, stripe sizes and column
// subsets (in random order), a projected read decodes exactly what a full
// decode holds in those columns, and fetches exactly the trailer, the
// footer, the stripe headers and the wanted streams — computed here from
// the writer's own per-column byte counts — with no byte fetched twice. A
// full projection fetches exactly the file, in one fetch per stripe after
// Open's two.
func TestReadColumnsProjection(t *testing.T) {
	schema := testSchema()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		samples := randomSamples(rng, schema, 1+rng.Intn(90))
		data, stats := writeFile(t, schema, samples, 1+rng.Intn(24))
		footerLen := int64(binary.LittleEndian.Uint32(data[len(data)-trailerLen:]))
		var streams int64
		for _, c := range stats.Columns {
			streams += c.CompressedBytes
		}
		headers := int64(len(data)) - int64(len(magic)) - streams - footerLen - int64(trailerLen)

		nKeys := len(schema.Sparse)
		cols := rng.Perm(nKeys)[:rng.Intn(nKeys+1)]
		log := &fetchLog{data: data}
		r, err := Open(int64(len(data)), log.fetch)
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := r.ReadColumns(context.Background(), cols)
		if err != nil {
			t.Fatalf("trial %d cols %v: %v", trial, cols, err)
		}

		rows := chunk.Samples()
		if len(rows) != len(samples) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(rows), len(samples))
		}
		want := make([]datagen.Sample, len(samples))
		for i, s := range samples {
			want[i] = s
			want[i].Sparse = make([][]int64, nKeys)
			for _, col := range cols {
				want[i].Sparse[col] = s.Sparse[col]
			}
		}
		for i := range rows {
			if !samplesEqual(rows[i], want[i]) {
				t.Fatalf("trial %d cols %v: row %d differs from the full decode's projection", trial, cols, i)
			}
		}

		fetched := log.bytes(t)
		if len(cols) == nKeys {
			if want := 2 + r.NumStripes(); fetched != int64(len(data)) || len(log.ranges) != want {
				t.Fatalf("trial %d: full projection fetched %d of %d bytes in %d fetches, want all in %d",
					trial, fetched, len(data), len(log.ranges), want)
			}
			continue
		}
		wanted := int64(trailerLen) + footerLen + headers +
			stats.Columns[metaStream].CompressedBytes + stats.Columns[denseStream].CompressedBytes
		for _, col := range cols {
			wanted += stats.Columns[firstSparse+col].CompressedBytes
		}
		if fetched != wanted {
			t.Fatalf("trial %d cols %v: fetched %d bytes, the projection's footer+headers+streams are %d (file %d)",
				trial, cols, fetched, wanted, len(data))
		}
	}
}

// TestSamplesAreClampedViews: rows alias the chunk's columns instead of
// copying them, and every list's capacity stops at its length, so growing
// one row's list can never overwrite the next row's values.
func TestSamplesAreClampedViews(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 8)
	data, _ := writeFile(t, schema, samples, 16)
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := r.ReadColumns(context.Background(), allColumns(len(schema.Sparse)))
	if err != nil {
		t.Fatal(err)
	}
	rows := chunk.Samples()
	for i := range rows {
		if cap(rows[i].Dense) != len(rows[i].Dense) || cap(rows[i].Sparse) != len(rows[i].Sparse) {
			t.Fatalf("row %d: dense or list-header capacity runs into the next row", i)
		}
		for fi, lst := range rows[i].Sparse {
			if cap(lst) != len(lst) {
				t.Fatalf("row %d feature %d: cap %d > len %d", i, fi, cap(lst), len(lst))
			}
		}
	}
	for i := 0; i+1 < len(rows); i++ {
		for fi := range rows[i].Sparse {
			rows[i].Sparse[fi] = append(rows[i].Sparse[fi], -1)
		}
		rows[i].Dense = append(rows[i].Dense, -1)
		rows[i].Sparse = append(rows[i].Sparse, []int64{-1})
	}
	again := chunk.Samples()
	for i := range again {
		if !samplesEqual(again[i], samples[i]) {
			t.Fatalf("appending to earlier rows' lists clobbered row %d", i)
		}
	}
	if len(again) > 1 && len(again[0].Sparse[0]) > 0 && &again[0].Sparse[0][0] != &chunk.sparse[0].Values[0] {
		t.Fatal("row lists are copies, not views over the chunk")
	}
}

// TestChunkSliceAppend: cutting a chunk into arbitrary row ranges and
// appending them back reproduces it, through the row view, from a
// projected chunk too; ChunkFromSamples inverts Samples.
func TestChunkSliceAppend(t *testing.T) {
	schema := testSchema()
	rng := rand.New(rand.NewSource(9))
	samples := randomSamples(rng, schema, 70)
	data, _ := writeFile(t, schema, samples, 16)
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{5, 0, 3}
	chunk, err := r.ReadColumns(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	want := chunk.Samples()
	for trial := 0; trial < 20; trial++ {
		out := &Chunk{}
		for lo := 0; lo < chunk.Rows(); {
			hi := min(lo+rng.Intn(12), chunk.Rows())
			piece := chunk.Slice(lo, hi)
			if rng.Intn(2) == 0 {
				piece = piece.Slice(0, piece.Rows()).Clone() // a slice of a slice, then owned
			}
			if err := out.Append(piece); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		got := out.Samples()
		if len(got) != len(want) {
			t.Fatalf("restitched %d rows, want %d", len(got), len(want))
		}
		for i := range got {
			if !samplesEqual(got[i], want[i]) {
				t.Fatalf("trial %d: row %d differs after slice+append", trial, i)
			}
		}
	}
	back, err := ChunkFromSamples(want, chunk.Keys(), chunk.DenseWidth(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range back.Slice(10, 30).Samples() {
		if !samplesEqual(s, want[10+i]) {
			t.Fatalf("ChunkFromSamples: row %d differs", 10+i)
		}
	}
	if _, err := ChunkFromSamples([]datagen.Sample{{}}, chunk.Keys(), 0, cols); err == nil {
		t.Fatal("a row narrower than the projection was accepted")
	}
	if err := (&Chunk{}).Append(chunk); err != nil {
		t.Fatal(err)
	}
	narrow, err := r.ReadColumns(context.Background(), cols[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := chunk.Clone().Append(narrow); err == nil {
		t.Fatal("appending a chunk of a different projection width was accepted")
	}
}

// TestConcurrentProjectedReads runs full and projected multi-stripe reads
// of one file from many goroutines at once — each read itself decoding
// stripes concurrently from pooled scratch — for the race detector.
func TestConcurrentProjectedReads(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 40)
	data, _ := writeFile(t, schema, samples, 16)
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cols := allColumns(len(schema.Sparse))[:1+g%len(schema.Sparse)]
			chunk, err := r.ReadColumns(context.Background(), cols)
			if err != nil {
				t.Error(err)
				return
			}
			for i, s := range chunk.Samples() {
				for _, col := range cols {
					if len(s.Sparse[col]) != len(samples[i].Sparse[col]) {
						t.Errorf("reader %d: row %d column %d decoded wrong", g, i, col)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
