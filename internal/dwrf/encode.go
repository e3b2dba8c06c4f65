package dwrf

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Column stream encodings. Every stream is a byte slice produced by one of
// the putX helpers and tensor.WidthCodec, stored as written, and consumed
// by the matching byteReader methods and WidthCodec.At where it was
// fetched.

// putUvarint appends v to b as an unsigned varint.
func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// putVarint appends v to b as a zigzag-encoded signed varint.
func putVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// uvarintLen is the length of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// putFloat32 appends the little-endian IEEE bits of f.
func putFloat32(b []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
}

// byteReader is a cursor over an encoded stream.
type byteReader struct {
	buf []byte
	pos int
}

var errVarintOverflow = errors.New("dwrf: varint overflows 64 bits")

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.pos += n
	return v, nil
}

// varintErr names the failure binary.Uvarint reported through its byte
// count: zero for a buffer that ends mid-value, negative for overflow.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

func (r *byteReader) remaining() int { return len(r.buf) - r.pos }

// row reads one sparse row header (see appendSparse): how many rows it
// states, more than one only for a run; the distance back to the row each
// copies, 0 for a literal; how many IDs each drops from the front of that
// row; and how many literal IDs follow the header. It holds the header to
// the grammar alone: whether the numbers fit the stripe is the caller's to
// check.
func (r *byteReader) row() (rows, dist, drop, tail uint64, err error) {
	h, err := r.uvarint()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	switch h & 3 {
	case 0:
		return h>>2 + 1, 1, 0, 0, nil
	case 1:
		return 1, 0, 0, h >> 2, nil
	case 2:
		tail, err = r.uvarint()
		return 1, 1, h >> 2, tail, err
	}
	if dist = h >> 3; dist < 2 {
		return 0, 0, 0, 0, errors.New("back-reference of distance below 2")
	}
	if h&4 != 0 { // the row again, whole
		return 1, dist, 0, 0, nil
	}
	if drop, err = r.uvarint(); err == nil {
		tail, err = r.uvarint()
	}
	return 1, dist, drop, tail, err
}

// widthCodec reads a run's header (tensor.WidthCodec, the module's one
// integer code): a width of 0 to 8 bytes and, if that is above 0, the base.
func (r *byteReader) widthCodec() (tensor.WidthCodec, error) {
	c, n, err := tensor.ParseWidthCodec(r.buf[r.pos:])
	r.pos += n
	return c, err
}
