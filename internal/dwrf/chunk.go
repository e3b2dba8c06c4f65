package dwrf

import (
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

// Chunk is a run of decoded rows held the way the file holds them, by
// column: the row metadata, one flat dense matrix, and one jagged tensor
// per decoded sparse column. It is what the stripe decoder produces and
// what the reader tier cuts batches from; rows (datagen.Sample) are a
// view over it (Samples), never a second copy of the data.
//
// A chunk may hold only a projection of the file's sparse columns: column
// p of the chunk is the file's sparse feature Columns()[p], in the order
// the projection named them. A Chunk value is a row window over shared
// column storage, so Slice is free; the storage is immutable once decoded.
type Chunk struct {
	keys  []string // the file's full sparse key list, schema order
	cols  []int    // index into keys of each decoded sparse column
	width int      // dense features per row

	session, user, request, ts []int64
	labels                     []int8
	dense                      []float32 // rows × width, row-major
	sparse                     []tensor.Jagged

	lo, hi int // the row window this value covers
}

// Rows reports the number of rows in the chunk.
func (c *Chunk) Rows() int { return c.hi - c.lo }

// Keys returns the file's full ordered sparse key list. Shared: callers
// must not modify it.
func (c *Chunk) Keys() []string { return c.keys }

// DenseWidth reports the number of dense features per row.
func (c *Chunk) DenseWidth() int { return c.width }

// Columns returns, per decoded sparse column, its index into Keys.
func (c *Chunk) Columns() []int { return c.cols }

// Labels returns the rows' labels. The slice aliases the chunk.
func (c *Chunk) Labels() []int8 { return c.labels[c.lo:c.hi] }

// Dense returns the rows' dense features, Rows()×DenseWidth() row-major.
// The slice aliases the chunk.
func (c *Chunk) Dense() []float32 { return c.dense[c.lo*c.width : c.hi*c.width] }

// Jagged copies decoded sparse column p out as a canonical tensor over the
// chunk's rows: one contiguous value copy, offsets rebased to zero.
func (c *Chunk) Jagged(p int) tensor.Jagged { return c.sparse[p].RowRange(c.lo, c.hi) }

// Slice returns rows [lo, hi) of the chunk as a view over the same
// column storage.
func (c *Chunk) Slice(lo, hi int) *Chunk {
	if lo < 0 || hi < lo || hi > c.Rows() {
		panic(fmt.Sprintf("dwrf: chunk slice [%d:%d] of %d rows", lo, hi, c.Rows()))
	}
	v := *c
	v.lo, v.hi = c.lo+lo, c.lo+hi
	return &v
}

// Append copies o's rows onto the end of c, which must own its storage (a
// zero Chunk, or one built only by Append) rather than be a Slice of
// another chunk. A zero c adopts o's schema; otherwise both must decode
// the same number of sparse columns at the same dense width.
func (c *Chunk) Append(o *Chunk) error {
	if c.sparse == nil && c.hi == 0 {
		c.keys, c.cols, c.width = o.keys, o.cols, o.width
		c.sparse = make([]tensor.Jagged, len(o.sparse))
	}
	if len(c.sparse) != len(o.sparse) || c.width != o.width {
		return fmt.Errorf("dwrf: appending a chunk of %d sparse columns, dense width %d to one of %d, width %d",
			len(o.sparse), o.width, len(c.sparse), c.width)
	}
	for p := range c.sparse {
		a, b := o.sparse[p].ValueBounds(o.lo, o.hi)
		if len(c.sparse[p].Values)+(b-a) > math.MaxInt32 {
			return fmt.Errorf("dwrf: sparse column %q exceeds %d values", c.keys[c.cols[p]], math.MaxInt32)
		}
		c.sparse[p].AppendRows(o.sparse[p], o.lo, o.hi)
	}
	c.session = append(c.session, o.session[o.lo:o.hi]...)
	c.user = append(c.user, o.user[o.lo:o.hi]...)
	c.request = append(c.request, o.request[o.lo:o.hi]...)
	c.ts = append(c.ts, o.ts[o.lo:o.hi]...)
	c.labels = append(c.labels, o.Labels()...)
	c.dense = append(c.dense, o.Dense()...)
	c.hi += o.Rows()
	return nil
}

// Concat copies the rows of parts — at least one, all decoding the same
// number of sparse columns at the same dense width — in order into one
// chunk that owns its storage, sized exactly and allocated once: the integer
// columns (row metadata, sparse values) out of one block, the offsets out of
// another. It is how rows that arrived in pieces (the stripes of a file, the
// slices of a batch that straddles two of them) become one run.
func Concat(parts ...*Chunk) (*Chunk, error) {
	first := parts[0]
	rows := 0
	for _, p := range parts {
		if len(p.sparse) != len(first.sparse) || p.width != first.width {
			return nil, fmt.Errorf("dwrf: joining a chunk of %d sparse columns, dense width %d to one of %d, width %d",
				len(p.sparse), p.width, len(first.sparse), first.width)
		}
		rows += p.Rows()
	}
	out := &Chunk{keys: first.keys, cols: first.cols, width: first.width, sparse: make([]tensor.Jagged, len(first.sparse))}
	values := func(q int) (n int) { // of sparse column q, over all parts
		for _, p := range parts {
			a, b := p.sparse[q].ValueBounds(p.lo, p.hi)
			n += b - a
		}
		return n
	}
	// One block per element type, each column an empty window of it whose
	// capacity is exactly what Append will put there.
	total := 4 * rows
	for q := range out.sparse {
		total += values(q)
	}
	ints := make([]int64, total)
	offsets := make([]int32, len(out.sparse)*rows)
	column := func(n int) []int64 {
		col := ints[:0:n]
		ints = ints[n:]
		return col
	}
	out.session, out.user, out.request, out.ts = column(rows), column(rows), column(rows), column(rows)
	out.labels = make([]int8, 0, rows)
	out.dense = make([]float32, 0, rows*out.width)
	for q := range out.sparse {
		out.sparse[q] = tensor.Jagged{Values: column(values(q)), Offsets: offsets[q*rows : q*rows : (q+1)*rows]}
	}
	for _, p := range parts {
		if err := out.Append(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a copy of the chunk's rows that owns its storage, so
// holding it pins nothing of the chunk it was cut from.
func (c *Chunk) Clone() *Chunk {
	out, err := Concat(c)
	if err != nil {
		panic(err) // one part agrees with itself
	}
	return out
}

// MemBytes estimates what holding the chunk's rows pins, for cache
// budgets: per row the metadata, a list header per schema feature and the
// dense features, plus the sparse values. That is the chunk's own payload,
// right for one that owns its rows (Clone); a Slice of a larger chunk pins
// all of it and is undercounted.
func (c *Chunk) MemBytes() int64 {
	const rowOverhead = 88 // 4 int64s, label, 2 slice headers
	total := int64(c.Rows()) * int64(rowOverhead+4*c.width+24*len(c.keys))
	for _, j := range c.sparse {
		a, b := j.ValueBounds(c.lo, c.hi)
		total += 8 * int64(b-a)
	}
	return total
}

// Samples returns the chunk's rows as samples. The rows are views: each
// Dense and Sparse list aliases the chunk's column storage with its
// capacity clamped to its length, so appending to one row's list
// reallocates instead of overwriting its neighbour, and the per-row list
// headers of all rows share one allocation. Rows are full-width
// (len(Sparse) == len(Keys())); features outside the chunk's projection
// are empty lists.
func (c *Chunk) Samples() []datagen.Sample {
	n, nk, w := c.Rows(), len(c.keys), c.width
	out := make([]datagen.Sample, n)
	lists := make([][]int64, n*nk)
	for i := range out {
		r := c.lo + i
		out[i] = datagen.Sample{
			SessionID: c.session[r],
			UserID:    c.user[r],
			RequestID: c.request[r],
			Timestamp: c.ts[r],
			Label:     c.labels[r],
			Dense:     c.dense[r*w : (r+1)*w : (r+1)*w],
			Sparse:    lists[i*nk : (i+1)*nk : (i+1)*nk],
		}
	}
	for p, col := range c.cols {
		j := c.sparse[p]
		for i := 0; i < n; i++ {
			a, b := j.RowBounds(c.lo + i)
			lists[i*nk+col] = j.Values[a:b:b]
		}
	}
	return out
}

// ChunkFromSamples is the inverse of Samples: it gathers rows into a
// chunk holding the sparse columns cols (indices into keys) at the given
// dense width. Dense rows narrower than width are zero-padded and wider
// ones cut, as a row copy into a fixed-width matrix does.
func ChunkFromSamples(rows []datagen.Sample, keys []string, width int, cols []int) (*Chunk, error) {
	n := len(rows)
	c := &Chunk{
		keys: keys, cols: cols, width: width, hi: n,
		session: make([]int64, n), user: make([]int64, n), request: make([]int64, n), ts: make([]int64, n),
		labels: make([]int8, n),
		dense:  make([]float32, n*width),
		sparse: make([]tensor.Jagged, len(cols)),
	}
	for i := range rows {
		s := &rows[i]
		c.session[i], c.user[i], c.request[i], c.ts[i] = s.SessionID, s.UserID, s.RequestID, s.Timestamp
		c.labels[i] = s.Label
		copy(c.dense[i*width:(i+1)*width], s.Dense)
	}
	for p, col := range cols {
		total := 0
		for i := range rows {
			if col >= len(rows[i].Sparse) {
				return nil, fmt.Errorf("dwrf: row %d has %d sparse features, column %d wanted", i, len(rows[i].Sparse), col)
			}
			total += len(rows[i].Sparse[col])
		}
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("dwrf: sparse column %q exceeds %d values", keys[col], math.MaxInt32)
		}
		j := tensor.Jagged{Values: make([]tensor.Value, 0, total), Offsets: make([]int32, n)}
		for i := range rows {
			j.Offsets[i] = int32(len(j.Values))
			j.Values = append(j.Values, rows[i].Sparse[col]...)
		}
		c.sparse[p] = j
	}
	return c, nil
}

// allColumns is the full projection of a file with n sparse features.
func allColumns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
