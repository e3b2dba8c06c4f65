package dwrf

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
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
// stripe directory entries, keeping its schema section and row-key section.
func forgeFooter(t *testing.T, data []byte, stripes [][3]uint64, dense uint64) []byte {
	t.Helper()
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	return withFooter(r, data[:r.body], stripes, dense)
}

// forgeRowKeys replaces a file's row-key section with section, keeping
// the rest of its footer.
func forgeRowKeys(t *testing.T, data, section []byte) []byte {
	t.Helper()
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var stripes [][3]uint64
	for _, s := range r.stripes {
		stripes = append(stripes, [3]uint64{uint64(s.offset), uint64(s.length), uint64(s.rows)})
	}
	body := append(data[:r.rowKeysAt:r.rowKeysAt], section...)
	return withFooter(r, body, stripes, uint64(r.dense))
}

// withFooter appends to body a footer of r's schema and the given stripe
// directory and dense width, and the trailer.
func withFooter(r *FileReader, body []byte, stripes [][3]uint64, dense uint64) []byte {
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
	out := append([]byte(nil), body...)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	return append(out, trailerMagic...)
}

// TestHostileFooter: a forged stripe directory or dense width is refused
// at open. The first case is the reported reproducer — offset 2^64-2 plus
// length 4 wraps past the bound the old reader checked, opened cleanly,
// and panicked in ReadAll with "slice bounds out of range [-2:]". A forged
// row-key section opens, leaves every stripe readable, and is refused by
// ReadAll: a section a varint short of its rows or a byte past them, and
// request IDs of a width above 8 or whose bytes run past the section. A
// stripe whose label stream is not one byte a row is refused before its
// row count sizes anything. A file whose trailer is a retired layout's —
// the varint-ID layout's DWRF, the flate-sparse layout's DWR2 or the
// flate-label-and-dense layout's DWR3 — is refused at open, in one
// message that names the trailer found: its streams would parse in the
// current grammar and decode wrong.
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

	for _, trailer := range []string{magic, "DWR2", "DWR3"} {
		retired := append(data[:len(data)-len(trailerMagic):len(data)-len(trailerMagic)], trailer...)
		want := `dwrf: file is in a retired layout (trailer "` + trailer + `", not "` + trailerMagic + `"): re-land it with this build`
		if _, err := OpenReader(retired); err == nil || err.Error() != want {
			t.Fatalf("a file of the retired layout %s: open error %v, want %q", trailer, err, want)
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

	// Every key 0: a one-byte varint a row for session, user and
	// timestamp, then request IDs of width 1 over base 0, a byte a row.
	n := good.NumRows()
	zeros := func(k int) []byte { return make([]byte, k) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	section := cat(zeros(3*n), []byte{1, 0}, zeros(n))
	for _, tc := range []struct {
		name, err string
		section   []byte
	}{
		{"a varint short", "ends at the timestamp of row", zeros(3*n - 1)},
		{"a request ID short", "run past the section", section[:len(section)-1]},
		{"a byte past the last request ID", "past its", cat(section, zeros(1))},
		{"request IDs of 8 bytes past the section", "run past the section", cat(zeros(3*n), []byte{8, 0}, zeros(7*n))},
		{"request ID width above 8", "no width", cat(zeros(3*n), []byte{9, 0}, zeros(9*n))},
	} {
		r, err := OpenReader(forgeRowKeys(t, data, tc.section))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range r.NumStripes() {
			if _, err := r.StripeColumns(i, allColumns(len(r.keys))); err != nil {
				t.Fatalf("%s: stripe %d: %v", tc.name, i, err)
			}
		}
		if _, err := r.ReadAll(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: ReadAll: %v, want %q", tc.name, err, tc.err)
		}
	}

	keys := good.SparseKeys()
	for _, tc := range [][2]int{{maxStripeRows, 1}, {2, 3}, {2, 0}} {
		src, err := wholeStripe(forgeStripe(len(keys), tc[0], zeros(tc[1]), nil, nil), firstSparse+len(keys))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeStripe(src, keys, good.dense, allColumns(len(keys))); err == nil || !strings.Contains(err.Error(), "label stream") {
			t.Fatalf("%d rows, %d label bytes: decoded with error %v", tc[0], tc[1], err)
		}
	}
}

// forgeStripe builds a stripe of the given rows under a schema of keys
// sparse columns: the label stream labels, the dense stream dense, sparse
// column 0's stream sparse and the other sparse columns empty, each
// stored as it is under one length in the header.
func forgeStripe(keys, rows int, labels, dense, sparse []byte) []byte {
	hdr := putUvarint(putUvarint(nil, uint64(rows)), uint64(firstSparse+keys))
	for _, stream := range [][]byte{labels, dense, sparse} {
		hdr = putUvarint(hdr, uint64(len(stream)))
	}
	for range keys - 1 {
		hdr = putUvarint(hdr, 0)
	}
	return bytes.Join([][]byte{hdr, labels, dense, sparse}, nil)
}

// TestForgedRunsAreRefused: a sparse stream's header and row references
// are believed only as far as its bytes go. Each of these is refused:
//   - a repeat on a stripe's first row, and a run of repeats past its last;
//   - a back-reference of distance below 2, or past the stripe's first row;
//   - a shift or back-reference that drops more IDs than its row holds;
//   - a literal list, or a tail, whose IDs run past the stream;
//   - a tail in a stream of width 0;
//   - a stream with bytes past its last row;
//   - a literal followed by one run header whose repeats expand past
//     maxInflateRatio values a stored byte, refused before anything is
//     sized by it, allocating within a constant of the stripe's own length
//     where its rows claim gigabytes of values; whole-row back-references
//     that expand past the same bound; and a run stating more rows than
//     maxInflateRatio a stored byte, refused before their offsets are sized;
//   - a missing width byte, a width above 8, a base cut short, IDs in a
//     stream of width 0, and a literal whose IDs fit the bytes left one
//     byte each but not w bytes each;
//   - a label stream a byte longer or shorter than its rows, and a dense
//     stream a float longer or a byte shorter than its rows' floats.
func TestForgedRunsAreRefused(t *testing.T) {
	keys := testSchema().SparseKeys()
	head := []byte{1, 0} // width 1, base 0
	literal := func(n int) []byte { return append(putUvarint(nil, uint64(n)<<2|1), make([]byte, n)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const listLen, repeats = 1 << 10, 1 << 19
	expand := cat(head, literal(listLen), putUvarint(nil, (repeats-1)<<2))
	const backRefs = 1 << 12 // each a byte, copying the row two back whole
	backRef := cat(head, literal(backRefs), []byte{0}, bytes.Repeat([]byte{2<<3 | 7}, backRefs))
	for _, tc := range []struct {
		name, err string
		rows      int
		sparse    []byte
	}{
		{"repeat on row 0", "before the stripe's first", 2, cat(head, []byte{0, 0})},
		{"run past the stripe's last row", "past the stripe's last row", 2, cat(head, literal(1), []byte{1 << 2})},
		{"whole row 2 back on row 1", "before the stripe's first", 2, cat(head, literal(1), []byte{2<<3 | 7})},
		{"back-reference of distance 1", "distance below 2", 2, cat(head, literal(1), []byte{1<<3 | 3, 0, 0})},
		{"back-reference past row 0", "before the stripe's first", 3, cat(head, literal(1), literal(1), []byte{3<<3 | 3, 0, 0})},
		{"shift dropping more than its row", "drops 3 IDs of a row of 2", 2, cat(head, literal(2), []byte{3<<2 | 2, 0})},
		{"back-reference dropping more than its row", "drops 2 IDs of a row of 1", 3, cat(head, literal(1), literal(2), []byte{2<<3 | 3, 2, 0})},
		{"literal past the stream", "list too long", 1, cat(head, literal(10)[:5])},
		{"tail of t·w past the stream", "list too long", 2, cat([]byte{8, 0}, literal(0), []byte{2, 3}, make([]byte, 9))},
		{"tail at width 0", "width 0", 2, []byte{0, 1, 2, 1}},
		{"back-reference tail at width 0", "width 0", 3, []byte{0, 1, 1, 2<<3 | 3, 0, 1}},
		{"bytes past the last row", "past its last row", 1, cat(head, literal(1), []byte{0})},
		{"a run past the expansion limit", "expands to more than", 1 + repeats, expand},
		{"back-references past the expansion limit", "expands to more than", 2 + backRefs, backRef},
		{"rows past the expansion limit", "cannot state 9000 rows in 5 bytes", 9000, cat([]byte{0, 1}, putUvarint(nil, 8998<<2))},
		{"no width byte", "no width of 0 to 8 bytes", 1, nil},
		{"width above 8", "no width of 0 to 8 bytes", 1, []byte{9, 0, 1<<2 | 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"base truncated", "base truncated", 1, []byte{1, 0x80}},
		{"IDs at width 0", "width 0", 1, []byte{0, 1<<2 | 1, 0}},
		{"literal of n·w past the stream", "list too long", 1, cat([]byte{8, 0, 3<<2 | 1}, make([]byte, 9))},
	} {
		src, err := wholeStripe(forgeStripe(len(keys), tc.rows, make([]byte, tc.rows), nil, tc.sparse), firstSparse+len(keys))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := decodeStripe(src, keys, 0, []int{0}); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: decoded with error %v, want %q", tc.name, err, tc.err)
		}
	}

	// Two rows of two dense floats: 2 label bytes and 16 dense bytes,
	// which decode; any other length is refused.
	for _, tc := range []struct {
		name, err     string
		labels, dense int
	}{
		{"both streams their rows' length", "", 2, 16},
		{"label stream a byte long", "label stream of 3 bytes for 2 rows", 3, 16},
		{"label stream a byte short", "label stream of 1 bytes for 2 rows", 1, 16},
		{"dense stream a float long", "dense stream of 20 bytes for 2 rows of 2 floats", 2, 20},
		{"dense stream a byte short", "dense stream of 15 bytes for 2 rows of 2 floats", 2, 15},
	} {
		stripe := forgeStripe(len(keys), 2, make([]byte, tc.labels), make([]byte, tc.dense), []byte{0, 1, 0})
		src, err := wholeStripe(stripe, firstSparse+len(keys))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := decodeStripe(src, keys, 2, []int{0}); (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: decoded with error %v, want %q", tc.name, err, tc.err)
		}
	}

	// The expansion is refused having allocated no more than its rows and
	// a plain sparse stream of its length could make it: 8 bytes a value
	// for maxInflateRatio values a sparse byte, and as much again for the
	// offsets; 8 bytes a row, each paid for by its label byte, for the
	// label column and the row offsets. The claim itself sizes nothing.
	rows := 1 + repeats
	stripe := forgeStripe(len(keys), rows, make([]byte, rows), nil, expand)
	src, err := wholeStripe(stripe, firstSparse+len(keys))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 64 << 10 // the chunk header, the error
	bound := uint64(16*maxInflateRatio*len(expand) + 8*rows + slack)
	if claim := uint64(8 * listLen * rows); claim < 100*bound {
		t.Fatalf("the forged claim of %d bytes is too close to the bound %d to show anything", claim, bound)
	}
	var before, after runtime.MemStats
	grew := ^uint64(0)
	for try := 0; try < 3; try++ { // TotalAlloc is process-wide; the best of three is this decode's
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := decodeStripe(src, keys, 0, []int{0})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("the forged expansion decoded")
		}
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew > bound {
		t.Fatalf("a %d-byte forged stripe allocated %d bytes, bound %d", len(stripe), grew, bound)
	}
	t.Logf("a %d-byte stripe claiming %d values allocated %d bytes, bound %d", len(stripe), listLen*rows, grew, bound)
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
// full projection fetches exactly the file less its row-key section, in
// one fetch per stripe after Open's two, and not one byte of the section;
// ReadAll fetches exactly the file, the section in one more fetch.
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
			want[i] = chunkRow(s)
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
		section := r.body - r.rowKeysAt
		if len(cols) == nKeys {
			if want := 2 + r.NumStripes(); fetched != int64(len(data))-section || len(log.ranges) != want {
				t.Fatalf("trial %d: full projection fetched %d bytes in %d fetches, want the %d-byte file less its %d-byte row-key section in %d",
					trial, fetched, len(log.ranges), len(data), section, want)
			}
			for _, rg := range log.ranges {
				if rg[0] < r.body && rg[1] > r.rowKeysAt {
					t.Fatalf("trial %d: full projection fetched [%d,%d), inside the row-key section [%d,%d)", trial, rg[0], rg[1], r.rowKeysAt, r.body)
				}
			}
			all := &fetchLog{data: data}
			ra, err := Open(int64(len(data)), all.fetch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ra.ReadAll(); err != nil {
				t.Fatal(err)
			}
			if got, want := all.bytes(t), 3+r.NumStripes(); got != int64(len(data)) || len(all.ranges) != want {
				t.Fatalf("trial %d: ReadAll fetched %d of %d bytes in %d fetches, want all in %d", trial, got, len(data), len(all.ranges), want)
			}
			continue
		}
		wanted := int64(trailerLen) + footerLen + headers - section +
			stats.Columns[labelStream].CompressedBytes + stats.Columns[denseStream].CompressedBytes
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
		if !samplesEqual(again[i], chunkRow(samples[i])) {
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
				piece = owned(t, piece.Slice(0, piece.Rows())) // a slice of a slice, then owned
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
	if err := owned(t, chunk).Append(narrow); err == nil {
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

// owned copies c's rows into a chunk that owns its storage, as Append
// requires of its receiver.
func owned(t testing.TB, c *Chunk) *Chunk {
	t.Helper()
	out, err := Concat(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
