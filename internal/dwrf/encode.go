package dwrf

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
)

// Column stream encodings. Every stream is a byte slice produced by one of
// the putX helpers and the idCodec, stored as written, and consumed by the
// matching byteReader and idCodec methods where it was fetched.

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

// idCodec is the format's one integer code for a run of IDs: each ID is
// its offset over the run's least ID, the base, in w little-endian bytes
// (ORC's fixed-width integer runs), where a varint would spend a
// continuation bit a byte. w is the fewest bytes that hold the greatest
// ID's offset, and at least 1 when the run holds an ID, so an ID never
// costs less than a byte; it is 0 only for a run that holds none. A run
// opens with its header: the width byte and, if w > 0, the base as a
// zigzag varint. A sparse stream's literal IDs and the row-key section's
// request IDs are both such runs.
type idCodec struct {
	base  int64
	width int
}

// newIDCodec is the code for a run whose IDs lie in [lo, hi]; lo > hi for
// a run of none.
func newIDCodec(lo, hi int64) idCodec {
	if lo > hi {
		return idCodec{}
	}
	return idCodec{base: lo, width: max(1, (bits.Len64(uint64(hi)-uint64(lo))+7)/8)}
}

// appendHeader appends the run's width byte and, if w > 0, its base.
func (c idCodec) appendHeader(b []byte) []byte {
	b = append(b, byte(c.width))
	if c.width > 0 {
		b = putVarint(b, c.base)
	}
	return b
}

// append appends id, which must lie in the run's range, in w bytes.
func (c idCodec) append(b []byte, id int64) []byte {
	n := len(b)
	return binary.LittleEndian.AppendUint64(b, uint64(id)-uint64(c.base))[:n+c.width]
}

// at reads the ID whose w bytes open b; the caller has held len(b) >= w.
// Where eight bytes are left it loads them whole and masks the ID's off.
func (c idCodec) at(b []byte) int64 {
	var v uint64
	if len(b) >= 8 {
		v = binary.LittleEndian.Uint64(b) & (^uint64(0) >> (64 - 8*c.width))
	} else {
		for i := c.width - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	}
	return c.base + int64(v)
}

// idCodec reads a run's header (see idCodec): a width of 0 to 8 bytes
// and, if that is above 0, the base.
func (r *byteReader) idCodec() (idCodec, error) {
	if r.remaining() == 0 || r.buf[r.pos] > 8 {
		return idCodec{}, errors.New("has no ID width of 0 to 8 bytes")
	}
	c := idCodec{width: int(r.buf[r.pos])}
	r.pos++
	if c.width > 0 {
		var err error
		if c.base, err = r.varint(); err != nil {
			return idCodec{}, errors.New("base truncated")
		}
	}
	return c, nil
}
