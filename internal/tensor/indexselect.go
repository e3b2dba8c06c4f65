package tensor

// JaggedIndexSelect gathers rows of a jagged tensor by index without first
// densifying it (paper §5, optimization O6). Before RecD, index_select only
// operated on dense tensors, so jagged tensors had to be padded to a dense
// representation first, incurring large memory overheads; this operates
// directly on the (values, offsets) encoding.
//
// The result has len(indices) rows; row i of the result is row indices[i]
// of j. Indices may repeat (that is the point: expanding an IKJT duplicates
// unique rows back out) and must be valid row indices of j.
func JaggedIndexSelect(j Jagged, indices []int32) Jagged {
	return JaggedIndexSelectInto(Jagged{}, j, indices)
}

// JaggedIndexSelectInto is JaggedIndexSelect with an optional destination:
// dst's value and offset storage is reused when its capacity suffices, so
// steady-state expansion loops (e.g. a trainer expanding every batch's
// IKJTs) run allocation-free. The zero Jagged is a valid dst. The result
// aliases dst's storage; j must not alias dst.
func JaggedIndexSelectInto(dst Jagged, j Jagged, indices []int32) Jagged {
	total := 0
	for _, idx := range indices {
		total += j.RowLen(int(idx))
	}
	values := dst.Values
	if cap(values) < total {
		values = make([]Value, total)
	} else {
		values = values[:total]
	}
	offsets := dst.Offsets
	if cap(offsets) < len(indices) {
		offsets = make([]int32, len(indices))
	} else {
		offsets = offsets[:len(indices)]
	}
	pos := 0
	for i, idx := range indices {
		offsets[i] = int32(pos)
		start, end := j.RowBounds(int(idx))
		pos += copy(values[pos:], j.Values[start:end])
	}
	return Jagged{Values: values, Offsets: offsets}
}

// DenseIndexSelect gathers rows of a dense tensor by index; the dense
// analogue used to expand deduplicated pooled embeddings back to the full
// batch (paper §5 "Deduplicated Pooling": compute on unique rows, then use
// the shared inverse lookup to expand the output).
func DenseIndexSelect(d Dense, indices []int32) Dense {
	out := NewDense(len(indices), d.Cols)
	for i, idx := range indices {
		copy(out.Row(i), d.Row(int(idx)))
	}
	return out
}

// DenseIndexAdd scatter-adds rows of src into dst at the given indices:
// dst[indices[i]] += src[i]. It is the backward (transpose) of
// DenseIndexSelect and is used to accumulate gradients from expanded rows
// back onto the deduplicated rows during training.
func DenseIndexAdd(dst Dense, indices []int32, src Dense) {
	for i, idx := range indices {
		drow := dst.Row(int(idx))
		srow := src.Row(i)
		for c := range drow {
			drow[c] += srow[c]
		}
	}
}
