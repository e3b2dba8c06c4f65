package dwrf

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tensor"
)

// Wire form of a chunk's rows, for a transport that ships decoded rows (the
// body of a dppnet head or closing piece). Rows travel as the columns they are
// held in, and only the decoded columns travel; the schema they belong to
// — the file's keys, the dense width, which columns are decoded — is not
// repeated per chunk: the decoder's caller names it, as ChunkFromSamples'
// caller does. Layout, in tensor's little-endian wire blocks:
//
//	uvarint rows | rows label bytes | rows × width float32 cells |
//	one jagged tensor of rows rows per decoded column
//
// maxWireCells bounds a decoded chunk's rows, and its rows × width, the way
// tensor bounds a dense tensor; every other count is tensor's to bound.
const maxWireCells = 1 << 24

// AppendTo appends the wire form of the chunk's rows to dst.
func (c *Chunk) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.Rows()))
	for _, l := range c.Labels() {
		dst = append(dst, byte(l))
	}
	dst = tensor.AppendFloat32s(dst, c.Dense())
	for p := range c.sparse {
		dst = tensor.AppendJagged(dst, c.Jagged(p))
	}
	return dst
}

// DecodeChunk reads what AppendTo wrote into a chunk that owns its storage
// and holds the sparse columns cols (indices into keys) at the given dense
// width. The input is as hostile as any wire payload: every count is held
// against its bound and against the row count before it is believed, and —
// d's rule — nothing is allocated for bytes d does not hold.
func DecodeChunk(d *tensor.Decoder, keys []string, width int, cols []int) (*Chunk, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("dwrf: chunk row count: %w", err)
	}
	if n > maxWireCells/uint64(max(width, 1)) {
		return nil, fmt.Errorf("dwrf: implausible chunk of %d rows, dense width %d", n, width)
	}
	rows := int(n)
	c := &Chunk{keys: keys, cols: cols, width: width, hi: rows, sparse: make([]tensor.Jagged, len(cols))}
	labels, err := d.Next(rows)
	if err != nil {
		return nil, fmt.Errorf("dwrf: chunk labels: %w", err)
	}
	c.labels = make([]int8, rows)
	for i, l := range labels {
		c.labels[i] = int8(l)
	}
	if c.dense, err = d.Float32s(rows * width); err != nil {
		return nil, fmt.Errorf("dwrf: chunk dense cells: %w", err)
	}
	for p, col := range cols {
		if c.sparse[p], err = d.Jagged(); err != nil {
			return nil, fmt.Errorf("dwrf: chunk sparse column %q: %w", keys[col], err)
		}
		if got := c.sparse[p].Rows(); got != rows {
			return nil, fmt.Errorf("dwrf: chunk sparse column %q has %d rows, want %d", keys[col], got, rows)
		}
	}
	return c, nil
}
