package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// WidthCodec is the module's one integer code: a run of integers, each
// written as its offset over the run's least value, the base, in Width
// little-endian bytes (ORC's fixed-width integer runs), where a varint
// would spend a continuation bit a byte. Width is the fewest bytes that
// hold the greatest value's offset, and at least 1 when the run holds a
// value, so a value never costs less than a byte; it is 0 only for a run
// that holds none. A run opens with its header: the width byte and, if
// Width > 0, the base as a zigzag varint. Its n values then take n·Width
// bytes.
//
// DWRF writes its sparse streams' literal IDs and its row-key section's
// request IDs in it, appending and reading one value at a time; the wire
// writes every integer block of a batch or a chunk in it (appendInts).
type WidthCodec struct {
	Base  int64
	Width int
}

// NewWidthCodec is the code for a run whose values lie in [lo, hi]; lo > hi
// for a run of none.
func NewWidthCodec(lo, hi int64) WidthCodec {
	if lo > hi {
		return WidthCodec{}
	}
	return WidthCodec{Base: lo, Width: max(1, (bits.Len64(uint64(hi)-uint64(lo))+7)/8)}
}

// AppendHeader appends the run's width byte and, if Width > 0, its base.
func (c WidthCodec) AppendHeader(b []byte) []byte {
	b = append(b, byte(c.Width))
	if c.Width > 0 {
		b = binary.AppendVarint(b, c.Base)
	}
	return b
}

// Append appends v, which must lie in the run's range, in Width bytes.
func (c WidthCodec) Append(b []byte, v int64) []byte {
	n := len(b)
	return binary.LittleEndian.AppendUint64(b, uint64(v)-uint64(c.Base))[:n+c.Width]
}

// At reads the value whose Width bytes open b; the caller has held
// len(b) >= Width. Where eight bytes are left it loads them whole and masks
// the value's off.
func (c WidthCodec) At(b []byte) int64 {
	var v uint64
	if len(b) >= 8 {
		v = binary.LittleEndian.Uint64(b) & widthMask(c.Width)
	} else {
		for i := c.Width - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	}
	return c.Base + int64(v)
}

// widthMask keeps the low w bytes of a 64-bit load.
func widthMask(w int) uint64 { return ^uint64(0) >> (64 - 8*w) }

// ParseWidthCodec reads a run's header from the front of b: a width of 0
// to 8 bytes and, if that is above 0, the base. It returns the code and the
// header's length.
func ParseWidthCodec(b []byte) (WidthCodec, int, error) {
	if len(b) == 0 || b[0] > 8 {
		return WidthCodec{}, 0, errNoWidth
	}
	c := WidthCodec{Width: int(b[0])}
	if c.Width == 0 {
		return c, 1, nil
	}
	base, n := binary.Varint(b[1:])
	if n <= 0 {
		return WidthCodec{}, 0, errBaseTruncated
	}
	c.Base = base
	return c, 1 + n, nil
}

var (
	errNoWidth       = errors.New("has no width of 0 to 8 bytes")
	errBaseTruncated = errors.New("base truncated")
)

// Integer blocks. A block is a uvarint count n, a WidthCodec header for
// the block's span, then n·Width bytes. A span that needs a cell's whole
// memory width is written over base 0 — the cells' own little-endian bytes,
// one copy on a little-endian host — so a block that cannot narrow costs
// what it did before it could; an int32 block is written so only when its
// least value is not negative, which is every int32 block a valid tensor
// holds.

// intCell is an integer cell of a block.
type intCell interface{ Value | int32 }

// span returns the least and greatest of vals, lo > hi when vals is empty.
// Eight values at a time are reduced to their least and greatest before
// either is held against the running pair, whose branches are nearly
// always not taken.
func span[T intCell](vals []T) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for ; len(vals) >= 8; vals = vals[8:] {
		v := vals[:8:8]
		a, b, c, d := int64(v[0]), int64(v[1]), int64(v[2]), int64(v[3])
		e, f, g, h := int64(v[4]), int64(v[5]), int64(v[6]), int64(v[7])
		if l := min(a, b, c, d, e, f, g, h); l < lo {
			lo = l
		}
		if m := max(a, b, c, d, e, f, g, h); m > hi {
			hi = m
		}
	}
	for _, v := range vals {
		lo, hi = min(lo, int64(v)), max(hi, int64(v))
	}
	return lo, hi
}

// blockCodec is the code a block of cellWidth-byte cells spanning [lo, hi]
// is written in, and whether that is the cells' own bytes.
func blockCodec(lo, hi int64, cellWidth int) (WidthCodec, bool) {
	c := NewWidthCodec(lo, hi)
	if c.Width == cellWidth && (cellWidth == 8 || lo >= 0) {
		return WidthCodec{Width: cellWidth}, true
	}
	return c, false
}

// appendInts appends vals as one block.
func appendInts[T intCell](dst []byte, vals []T) []byte {
	lo, hi := span(vals)
	c, whole := blockCodec(lo, hi, cellBytes[T]())
	return appendBody(c.AppendHeader(binary.AppendUvarint(dst, uint64(len(vals)))), vals, c, whole)
}

// appendBody appends vals' n·Width bytes in c; whole says c is the cells'
// own bytes. Widths 1, 2 and 4 have their own loops, the last two packing
// four and two values into each 8-byte store: an offset over the base
// fits its width, so the lanes need no mask. The other widths store
// eight bytes a value, each store overlapping the next, and cut the last
// one's excess off.
func appendBody[T intCell](dst []byte, vals []T, c WidthCodec, whole bool) []byte {
	if whole {
		return appendCells(dst, vals)
	}
	at, end := len(dst), len(dst)+len(vals)*c.Width
	dst = slices.Grow(dst, end+8-at)
	out := dst[at : end+8]
	base := uint64(c.Base)
	le := binary.LittleEndian
	switch w := c.Width; w {
	case 1:
		out = out[:len(vals)]
		for i, v := range vals {
			out[i] = byte(uint64(v) - base)
		}
	case 2:
		for ; len(vals) >= 8 && len(out) >= 16; vals, out = vals[8:], out[16:] {
			v := vals[:8:8]
			le.PutUint64(out, (uint64(v[0])-base)|(uint64(v[1])-base)<<16|(uint64(v[2])-base)<<32|(uint64(v[3])-base)<<48)
			le.PutUint64(out[8:], (uint64(v[4])-base)|(uint64(v[5])-base)<<16|(uint64(v[6])-base)<<32|(uint64(v[7])-base)<<48)
		}
		for _, v := range vals {
			le.PutUint16(out, uint16(uint64(v)-base))
			out = out[2:]
		}
	case 4:
		for ; len(vals) >= 2; vals, out = vals[2:], out[8:] {
			le.PutUint64(out, (uint64(vals[0])-base)|(uint64(vals[1])-base)<<32)
		}
		if len(vals) == 1 {
			le.PutUint32(out, uint32(uint64(vals[0])-base))
		}
	default:
		for i, v := range vals {
			le.PutUint64(out[i*w:], uint64(v)-base)
		}
	}
	return dst[:end]
}

// decodeBody fills out from b, len(out)·Width bytes in c: the inverse of
// appendBody. Widths 1, 2 and 4 unpack eight, four and two values from
// each 8-byte load; the others load eight bytes a value and mask the
// value's off while eight are left.
func decodeBody[T intCell](out []T, b []byte, c WidthCodec) {
	base := c.Base
	le := binary.LittleEndian
	switch c.Width {
	case 0:
	case 1:
		for ; len(out) >= 8 && len(b) >= 8; out, b = out[8:], b[8:] {
			x, o := le.Uint64(b), out[:8:8]
			o[0], o[1] = T(base+int64(uint8(x))), T(base+int64(uint8(x>>8)))
			o[2], o[3] = T(base+int64(uint8(x>>16))), T(base+int64(uint8(x>>24)))
			o[4], o[5] = T(base+int64(uint8(x>>32))), T(base+int64(uint8(x>>40)))
			o[6], o[7] = T(base+int64(uint8(x>>48))), T(base+int64(uint8(x>>56)))
		}
		for i := range out {
			out[i] = T(base + int64(b[i]))
		}
	case 2:
		for ; len(out) >= 8 && len(b) >= 16; out, b = out[8:], b[16:] {
			x, y, o := le.Uint64(b), le.Uint64(b[8:]), out[:8:8]
			o[0], o[1] = T(base+int64(uint16(x))), T(base+int64(uint16(x>>16)))
			o[2], o[3] = T(base+int64(uint16(x>>32))), T(base+int64(x>>48))
			o[4], o[5] = T(base+int64(uint16(y))), T(base+int64(uint16(y>>16)))
			o[6], o[7] = T(base+int64(uint16(y>>32))), T(base+int64(y>>48))
		}
		for i := range out {
			out[i] = T(base + int64(le.Uint16(b[2*i:])))
		}
	case 4:
		if base == 0 && cellBytes[T]() == 4 {
			copyCells(out, b)
			return
		}
		for ; len(out) >= 4 && len(b) >= 16; out, b = out[4:], b[16:] {
			x, y, o := le.Uint64(b), le.Uint64(b[8:]), out[:4:4]
			o[0], o[1] = T(base+int64(uint32(x))), T(base+int64(x>>32))
			o[2], o[3] = T(base+int64(uint32(y))), T(base+int64(y>>32))
		}
		for i := range out {
			out[i] = T(base + int64(le.Uint32(b[4*i:])))
		}
	case 8:
		if base == 0 {
			copyCells(out, b)
			return
		}
		fallthrough
	default:
		w, mask := c.Width, widthMask(c.Width)
		i := 0
		for ; i*w+8 <= len(b); i++ {
			out[i] = T(base + int64(le.Uint64(b[i*w:])&mask))
		}
		for ; i < len(out); i++ {
			out[i] = T(c.At(b[i*w:]))
		}
	}
}

// intBlock reads a block's count, bounded, its header and its bytes, which
// must be there before anything is sized from the count: a block of values
// at width 0 is refused, as it states values in no bytes.
func (d *Decoder) intBlock(what string) (int, WidthCodec, []byte, error) {
	n, err := d.count(what, maxWireElems)
	if err != nil {
		return 0, WidthCodec{}, nil, err
	}
	c, err := d.widthCodec()
	if err == nil && n > 0 && c.Width == 0 {
		err = fmt.Errorf("states %d values at width 0", n)
	}
	if err != nil {
		return 0, WidthCodec{}, nil, fmt.Errorf("tensor: %s block %w", what, err)
	}
	b, err := d.Next(n * c.Width)
	return n, c, b, err
}

// widthCodec reads a block's header.
func (d *Decoder) widthCodec() (WidthCodec, error) {
	c, n, err := ParseWidthCodec(d.src)
	d.src = d.src[n:]
	return c, err
}

// int32s reads a block of int32 cells. A block that could hold a value
// outside int32 is refused: a width above 4 or a base outside int32 before
// anything is decoded, and, where the width's reach passes MaxInt32, a
// value that did once it is (it decodes below the base).
func (d *Decoder) int32s(what string) ([]int32, error) {
	n, c, b, err := d.intBlock(what)
	if err != nil {
		return nil, err
	}
	if n > 0 && (c.Width > 4 || c.Base < math.MinInt32 || c.Base > math.MaxInt32) {
		return nil, fmt.Errorf("tensor: %s block of width %d over base %d leaves int32", what, c.Width, c.Base)
	}
	out := make([]int32, n)
	decodeBody(out, b, c)
	if n > 0 && c.Base+int64(widthMask(c.Width)) > math.MaxInt32 {
		for i, v := range out {
			if v < int32(c.Base) {
				return nil, fmt.Errorf("tensor: %s %d is %d, outside int32", what, i, c.Base+int64(uint32(v-int32(c.Base))))
			}
		}
	}
	return out, nil
}

// lengthChunk is how many row lengths appendLengths holds at a time.
const lengthChunk = 256

// rowLengths fills buf with the lengths of the rows from row on of a
// jagged tensor with offsets offs and n values, as many as buf holds.
func rowLengths(buf *[lengthChunk]int32, offs []int32, row, n int) []int32 {
	k := min(lengthChunk, len(offs)-row)
	starts, out := offs[row:row+k], buf[:k]
	end := int32(n)
	if row+k < len(offs) {
		end = offs[row+k]
	}
	for i := range k - 1 {
		out[i] = starts[i+1] - starts[i]
	}
	out[k-1] = end - starts[k-1]
	return out
}

// appendLengths appends j's offsets as one block of row lengths. They are
// made a chunk at a time on the stack, twice — for the span, then for the
// bytes — so that no call allocates.
func appendLengths(dst []byte, j Jagged) []byte {
	var buf [lengthChunk]int32
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for row := 0; row < len(j.Offsets); row += lengthChunk {
		a, b := span(rowLengths(&buf, j.Offsets, row, len(j.Values)))
		lo, hi = min(lo, a), max(hi, b)
	}
	c, whole := blockCodec(lo, hi, 4)
	dst = c.AppendHeader(binary.AppendUvarint(dst, uint64(len(j.Offsets))))
	for row := 0; row < len(j.Offsets); row += lengthChunk {
		dst = appendBody(dst, rowLengths(&buf, j.Offsets, row, len(j.Values)), c, whole)
	}
	return dst
}

// offsets reads what appendLengths wrote for a tensor of n values and
// turns the lengths into offsets in place. A negative length, a running
// sum past n — n is bounded far below MaxInt32, so no offset overflows —
// and lengths that do not sum to n are refused.
func (d *Decoder) offsets(n int) ([]int32, error) {
	offs, err := d.int32s("row length")
	if err != nil {
		return nil, err
	}
	sum := int64(0)
	for i, l := range offs {
		if l < 0 || sum+int64(l) > int64(n) {
			return nil, fmt.Errorf("tensor: row %d of length %d passes the %d values", i, l, n)
		}
		offs[i] = int32(sum)
		sum += int64(l)
	}
	if sum != int64(n) {
		return nil, fmt.Errorf("tensor: row lengths sum to %d, want %d values", sum, n)
	}
	return offs, nil
}
