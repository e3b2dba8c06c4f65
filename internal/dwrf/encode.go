package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// Column stream encodings. Every stream is a byte slice produced by one of
// the putX helpers and consumed by the matching byteReader method; the
// label and dense streams are then flate-compressed per stripe, and the
// sparse streams stored as they are.

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

// inflater bundles a reusable flate reader with its byte source so stripe
// decoding does not rebuild the (large) flate state per column stream.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaterPool = sync.Pool{New: func() any { return &inflater{} }}

// decompressStream inflates a compressed stream into dst's storage (grown
// if needed); rawLen is the expected decompressed size recorded in the
// stripe header. Flate state comes from a pool, so concurrent stripe
// decodes each reuse a warm inflater.
func decompressStream(dst, comp []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > maxStreamBytes {
		return nil, fmt.Errorf("dwrf: invalid raw stream length %d", rawLen)
	}
	fl := inflaterPool.Get().(*inflater)
	defer func() {
		// Drop the reference into the caller's file buffer before pooling,
		// so idle pool entries never pin a decoded file in memory.
		fl.src.Reset(nil)
		inflaterPool.Put(fl)
	}()
	fl.src.Reset(comp)
	if fl.fr == nil {
		fl.fr = flate.NewReader(&fl.src)
	} else if err := fl.fr.(flate.Resetter).Reset(&fl.src, nil); err != nil {
		return nil, fmt.Errorf("dwrf: flate reset: %w", err)
	}
	if cap(dst) < rawLen {
		dst = make([]byte, rawLen)
	} else {
		dst = dst[:rawLen]
	}
	if _, err := io.ReadFull(fl.fr, dst); err != nil {
		return nil, fmt.Errorf("dwrf: decompress: %w", err)
	}
	// A trailing read must hit EOF, otherwise the recorded length lied.
	var one [1]byte
	if n, _ := fl.fr.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("dwrf: stream longer than recorded length %d", rawLen)
	}
	return dst, nil
}

// streamBufPool recycles decompressed column stream buffers across stripe
// decodes; samples copy their data out, so the buffers never escape.
var streamBufPool = sync.Pool{New: func() any { return new([]byte) }}
