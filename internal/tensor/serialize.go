package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Wire serialization for jagged tensors, KJTs and IKJTs. Readers serialize
// preprocessed batches in this format when shipping them to trainers; the
// byte counts it produces are what the reader->trainer network accounting
// measures (paper Table 3 "Send Bytes").
//
// The format is little-endian and self-describing enough for round-trip
// tests; it is intentionally simple rather than schema-evolving.
//
// Encoding appends: the Append forms grow a caller-owned buffer in place,
// which is how a transport builds a frame with no staging copy, and
// WriteWith runs an append into a pooled scratch handed to an io.Writer in
// one Write. Decoding runs on a Decoder over a byte slice, converting in
// place: whoever reads bytes off a connection or a file holds them whole
// first. Every bound and every validation lives in the Decoder's methods.
//
// A declared length is believed only as far as its bytes are there. A
// Decoder fails a count that claims more than its slice holds before
// anything is sized from it, and a transport that reads a length-prefixed
// frame off a connection reads through ReadInto, which collects a long
// claim a chunk at a time as its bytes arrive.
//
// Every integer block (values, a jagged tensor's row lengths, inverse and
// partial lookups) is written in the module's one integer code,
// WidthCodec: a count, a width byte w and a base, then each integer's
// offset over the base in w little-endian bytes, w the fewest that hold
// the block's span (width.go). A frame so carries the width its batch
// needs: IDs clamped below 2^16 take two bytes, row lengths one. Float
// blocks (dense cells, labels) are little-endian cells packed end to end,
// which is how a []float32 lies in memory on a little-endian host, as is
// an integer block whose span needs its cells' whole width, over base 0.
// There such a block is appended as one copy of the slice's bytes and
// decoded as one copy into a fresh slice (cells_le.go, the one file that
// imports unsafe); other hosts build the per-cell loop
// (cells_portable.go). The bytes are the same either way.

const (
	tagJagged  = uint8(1)
	tagKJT     = uint8(2)
	tagIKJT    = uint8(3)
	tagDense   = uint8(4)
	tagPartial = uint8(5)
)

// cell is a fixed-width wire element.
type cell interface {
	Value | int32 | float32
}

// cellBytes is the wire width of one T, which is also its size in memory.
func cellBytes[T cell]() int {
	var zero T
	switch any(zero).(type) {
	case int32, float32:
		return 4
	}
	return 8
}

// Decode-side plausibility caps. Wire payloads may arrive from another
// process (dppnet serves batches over TCP), so every length prefix is
// bounded before it sizes an allocation: a corrupt or malicious frame
// must fail with an error, never overflow an int, exhaust memory, or
// panic. The caps sit orders of magnitude above anything a real batch
// carries (values per tensor ≤ batch size × sequence length).
const (
	// maxWireElems bounds any single element-count prefix (values,
	// offsets, dense cells, lookup entries): 2^24 elements = 128 MiB of
	// 8-byte values.
	maxWireElems = 1 << 24
	// maxWireKeys bounds per-collection key counts (KJT/IKJT features).
	maxWireKeys = 1 << 16
	// maxWireString bounds feature-name lengths.
	maxWireString = 1 << 16
)

// scratchPool recycles WriteWith's staging buffers: it appends a whole
// object into one and writes it out. Buffers grow to the largest object
// seen and are reused.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteWith is the io.Writer face of an append form: appendTo appends
// into a pooled scratch, which goes to w in one Write.
func WriteWith(w io.Writer, appendTo func(dst []byte) []byte) error {
	bp := scratchPool.Get().(*[]byte)
	*bp = appendTo((*bp)[:0])
	_, err := w.Write(*bp)
	scratchPool.Put(bp)
	return err
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendValues appends vals as one integer block: a uvarint count, the
// block's WidthCodec header, and each value in its width.
func AppendValues(dst []byte, vals []Value) []byte {
	return appendInts(dst, vals)
}

// AppendFloat32s appends vals as raw little-endian cells, with no count:
// the caller's format says how many there are.
func AppendFloat32s(dst []byte, vals []float32) []byte {
	return appendCells(dst, vals)
}

// readChunk is how far ReadInto believes a declared length ahead of the
// bytes that have arrived.
const readChunk = 1 << 16

// ReadInto reads the next n bytes of r into *buf's storage and returns
// them; they are valid until *buf's next use. n bytes that fit are read in
// place at no allocation. More than that have only been claimed so far, so
// they are collected readChunk at a time as they arrive, and *buf is
// replaced — by exactly n bytes, not the next doubling — only once they all
// have: a forged n never costs more than one chunk beyond the bytes behind
// it, and *buf ends as large as the largest read, no larger.
func ReadInto(r io.Reader, buf *[]byte, n int) ([]byte, error) {
	switch {
	case n <= cap(*buf):
	case n <= readChunk:
		*buf = make([]byte, n)
	default:
		var chunks [][]byte
		for got := 0; got < n; got += readChunk {
			chunk := make([]byte, min(n-got, readChunk))
			if _, err := io.ReadFull(r, chunk); err != nil {
				return nil, err
			}
			chunks = append(chunks, chunk)
		}
		*buf = slices.Concat(chunks...)
		return *buf, nil
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ByteReader is a buffered byte source (*bytes.Reader, *bufio.Reader): a
// frame reader's input.
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// Decoder decodes the wire format from a byte slice, in place. Every count
// is bounded before it sizes anything, and nothing a Decoder returns
// aliases its input, so the input may be reused as soon as a call returns.
type Decoder struct {
	src []byte // the bytes not yet consumed
}

// NewDecoder decodes from src. A count that claims more than src holds
// fails before anything is allocated for it.
func NewDecoder(src []byte) Decoder { return Decoder{src: src} }

// Rest returns the input the Decoder has not consumed.
func (d *Decoder) Rest() []byte { return d.src }

// Next returns the next n bytes of the input; they alias it.
func (d *Decoder) Next(n int) ([]byte, error) {
	if n > len(d.src) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.src[:n]
	d.src = d.src[n:]
	return b, nil
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.src)
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, errors.New("tensor: uvarint overflows 64 bits")
	}
	d.src = d.src[n:]
	return v, nil
}

// count reads one uvarint length prefix and rejects implausible values
// before any allocation is sized from it.
func (d *Decoder) count(what string, max uint64) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > max {
		return 0, fmt.Errorf("tensor: implausible %s count %d", what, n)
	}
	return int(n), nil
}

func (d *Decoder) tag(want uint8, what string) error {
	b, err := d.Next(1)
	if err != nil {
		return err
	}
	if b[0] != want {
		return fmt.Errorf("tensor: bad %s tag %d", what, b[0])
	}
	return nil
}

func (d *Decoder) string() (string, error) {
	n, err := d.count("string byte", maxWireString)
	if err != nil {
		return "", err
	}
	b, err := d.Next(n)
	return string(b), err
}

// Values reads what AppendValues wrote. The count is bounded, and the
// values are allocated only once their bytes are in hand.
func (d *Decoder) Values() ([]Value, error) {
	n, c, b, err := d.intBlock("value")
	if err != nil {
		return nil, err
	}
	out := make([]Value, n)
	decodeBody(out, b, c)
	return out, nil
}

// decodeCells returns the cells whose wire form is b, in fresh memory: the
// result never aliases b.
func decodeCells[T cell](b []byte) []T {
	out := make([]T, len(b)/cellBytes[T]())
	copyCells(out, b)
	return out
}

// Float32s reads n raw cells written by AppendFloat32s. The caller has
// bounded n; the cells are allocated only once their bytes are in hand.
func (d *Decoder) Float32s(n int) ([]float32, error) {
	b, err := d.Next(4 * n)
	if err != nil {
		return nil, err
	}
	return decodeCells[float32](b), nil
}

// Int64s reads n raw little-endian 8-byte cells, the fixed-count form of
// Values. The caller has bounded n; the cells are allocated only once their
// bytes are in hand.
func (d *Decoder) Int64s(n int) ([]int64, error) {
	b, err := d.Next(8 * n)
	if err != nil {
		return nil, err
	}
	return decodeCells[Value](b), nil
}

// AppendJagged appends j's wire form to dst: its values, then its offsets
// as one block of row lengths.
func AppendJagged(dst []byte, j Jagged) []byte {
	return appendLengths(AppendValues(append(dst, tagJagged), j.Values), j)
}

// Jagged decodes a jagged tensor.
func (d *Decoder) Jagged() (Jagged, error) {
	if err := d.tag(tagJagged, "jagged"); err != nil {
		return Jagged{}, err
	}
	vals, err := d.Values()
	if err != nil {
		return Jagged{}, err
	}
	offs, err := d.offsets(len(vals))
	if err != nil {
		return Jagged{}, err
	}
	return Jagged{Values: vals, Offsets: offs}, nil
}

// appendKeyed appends what a KJT and an IKJT share: the key count, then
// each key with its tensor.
func appendKeyed(dst []byte, keys []string, tensors []Jagged) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for i, key := range keys {
		dst = AppendJagged(appendString(dst, key), tensors[i])
	}
	return dst
}

// keyed decodes what appendKeyed wrote.
func (d *Decoder) keyed(what string) ([]string, []Jagged, error) {
	n, err := d.count(what, maxWireKeys)
	if err != nil {
		return nil, nil, err
	}
	// n is a claim too: room for a chunk's worth of keys up front, and the
	// rest as they decode.
	keys := make([]string, 0, min(n, readChunk/64))
	tensors := make([]Jagged, 0, cap(keys))
	for range n {
		key, err := d.string()
		if err != nil {
			return nil, nil, err
		}
		t, err := d.Jagged()
		if err != nil {
			return nil, nil, err
		}
		keys, tensors = append(keys, key), append(tensors, t)
	}
	return keys, tensors, nil
}

// AppendKJT appends k's wire form to dst.
func AppendKJT(dst []byte, k *KJT) []byte {
	return appendKeyed(append(dst, tagKJT), k.keys, k.tensors)
}

// KJT decodes a KJT.
func (d *Decoder) KJT() (*KJT, error) {
	if err := d.tag(tagKJT, "kjt"); err != nil {
		return nil, err
	}
	keys, tensors, err := d.keyed("kjt key")
	if err != nil {
		return nil, err
	}
	return NewKJT(keys, tensors)
}

// AppendIKJT appends ik's wire form, including its inverse lookup, to dst.
func AppendIKJT(dst []byte, ik *IKJT) []byte {
	return appendInts(appendKeyed(append(dst, tagIKJT), ik.keys, ik.tensors), ik.inverseLookup)
}

// IKJT decodes an IKJT.
func (d *Decoder) IKJT() (*IKJT, error) {
	if err := d.tag(tagIKJT, "ikjt"); err != nil {
		return nil, err
	}
	keys, tensors, err := d.keyed("ikjt key")
	if err != nil {
		return nil, err
	}
	inverse, err := d.int32s("inverse lookup")
	if err != nil {
		return nil, err
	}
	return ikjtFromParts(keys, tensors, inverse)
}

// AppendDense appends d's wire form to dst.
func AppendDense(dst []byte, d Dense) []byte {
	dst = binary.AppendUvarint(append(dst, tagDense), uint64(d.RowsN))
	return AppendFloat32s(binary.AppendUvarint(dst, uint64(d.Cols)), d.Data)
}

// Dense decodes a dense tensor.
func (d *Decoder) Dense() (Dense, error) {
	if err := d.tag(tagDense, "dense"); err != nil {
		return Dense{}, err
	}
	rows, err := d.count("dense row", maxWireElems)
	if err != nil {
		return Dense{}, err
	}
	cols, err := d.count("dense col", maxWireElems)
	if err != nil {
		return Dense{}, err
	}
	if rows > 0 && cols > maxWireElems/rows {
		return Dense{}, fmt.Errorf("tensor: implausible dense shape %dx%d", rows, cols)
	}
	data, err := d.Float32s(rows * cols)
	if err != nil {
		return Dense{}, err
	}
	return Dense{RowsN: rows, Cols: cols, Data: data}, nil
}

// AppendPartial appends p's wire form to dst: the lookup travels as one
// flat integer block, offset then length per row.
func AppendPartial(dst []byte, p *PartialIKJT) []byte {
	dst = AppendValues(appendString(append(dst, tagPartial), p.Key), p.Values)
	return appendInts(dst, pairCells(p.Lookup))
}

// Partial decodes a partial IKJT.
func (d *Decoder) Partial() (*PartialIKJT, error) {
	if err := d.tag(tagPartial, "partial"); err != nil {
		return nil, err
	}
	key, err := d.string()
	if err != nil {
		return nil, err
	}
	vals, err := d.Values()
	if err != nil {
		return nil, err
	}
	flat, err := d.int32s("partial lookup")
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("tensor: partial lookup has odd length %d", len(flat))
	}
	p := &PartialIKJT{Key: key, Values: vals, Lookup: cellPairs(flat)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
