package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Column stream encodings. Every stream is a byte slice produced by one of
// the putX helpers and consumed by the matching readX helper; streams are
// then individually flate-compressed per stripe.

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

// putFloat32 appends the little-endian IEEE bits of f.
func putFloat32(b []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
}

// byteReader is a cursor over an encoded stream.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
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
