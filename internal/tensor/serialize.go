package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
// There is one codec with two faces on each side. Encoding appends: the
// Append forms grow a caller-owned buffer in place, which is how a
// transport builds a frame with no staging copy, and the Write forms are
// the same appends into a pooled scratch handed to the io.Writer in one
// Write. Decoding runs on a Decoder, which takes its input either from a
// byte slice, converting in place (a transport that already holds the
// whole frame), or from a byte reader, staging each block through a pooled
// scratch (the Read forms). Every bound and every validation lives in the
// Decoder's methods, so the two faces cannot drift apart.

const (
	tagJagged  = uint8(1)
	tagKJT     = uint8(2)
	tagIKJT    = uint8(3)
	tagDense   = uint8(4)
	tagPartial = uint8(5)
)

var wireOrder = binary.LittleEndian

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

// scratchPool recycles the staging buffers of the Write and Read forms:
// a Write form appends a whole object into one and writes it out, a
// reader Decoder stages each block through one. Buffers grow to the
// largest object seen and are reused.
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

// extend grows dst by n bytes and returns it with the new bytes as tail.
func extend(dst []byte, n int) (grown, tail []byte) {
	grown = slices.Grow(dst, n)[:len(dst)+n]
	return grown, grown[len(dst):]
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendValues appends vals as a uvarint count and that many raw
// little-endian 8-byte values.
func AppendValues(dst []byte, vals []Value) []byte {
	dst, out := extend(binary.AppendUvarint(dst, uint64(len(vals))), 8*len(vals))
	for i, v := range vals {
		wireOrder.PutUint64(out[i*8:], uint64(v))
	}
	return dst
}

func appendInt32s(dst []byte, vals []int32) []byte {
	dst, out := extend(binary.AppendUvarint(dst, uint64(len(vals))), 4*len(vals))
	for i, v := range vals {
		wireOrder.PutUint32(out[i*4:], uint32(v))
	}
	return dst
}

// AppendFloat32s appends vals as raw little-endian cells, with no count:
// the caller's format says how many there are.
func AppendFloat32s(dst []byte, vals []float32) []byte {
	dst, out := extend(dst, 4*len(vals))
	for i, v := range vals {
		wireOrder.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return dst
}

// ByteReader is the input of a reader Decoder and of the Read forms: any
// buffered byte source (*bytes.Reader, *bufio.Reader).
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// Decoder decodes the wire format from one input: a byte slice it reads
// in place (NewDecoder) or a byte reader it stages through a pooled
// scratch (NewReaderDecoder). Every count is bounded before it sizes
// anything, and nothing a Decoder returns aliases its input, so the
// input may be reused as soon as a call returns.
type Decoder struct {
	src     []byte     // slice input: the bytes not yet consumed
	r       ByteReader // reader input; nil for a slice
	scratch *[]byte    // reader input: the pooled staging buffer, once taken
}

// NewDecoder decodes from src. A count that claims more than src holds
// fails before anything is allocated for it.
func NewDecoder(src []byte) Decoder { return Decoder{src: src} }

// NewReaderDecoder decodes from r, reading exactly the bytes it decodes.
// Release it when done.
func NewReaderDecoder(r ByteReader) Decoder { return Decoder{r: r} }

// Release returns a reader Decoder's staging buffer to the pool.
func (d *Decoder) Release() {
	if d.scratch != nil {
		scratchPool.Put(d.scratch)
		d.scratch = nil
	}
}

// Rest returns the input a slice Decoder has not consumed.
func (d *Decoder) Rest() []byte { return d.src }

// Next returns the next n bytes of the input, valid until the following
// call on d. It is the only place the two kinds of input differ.
func (d *Decoder) Next(n int) ([]byte, error) {
	if d.r == nil {
		if n > len(d.src) {
			return nil, io.ErrUnexpectedEOF
		}
		b := d.src[:n]
		d.src = d.src[n:]
		return b, nil
	}
	if d.scratch == nil {
		d.scratch = scratchPool.Get().(*[]byte)
	}
	if cap(*d.scratch) < n {
		*d.scratch = make([]byte, n)
	}
	b := (*d.scratch)[:n]
	_, err := io.ReadFull(d.r, b)
	return b, err
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() (uint64, error) {
	if d.r != nil {
		return binary.ReadUvarint(d.r)
	}
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
	n, err := d.count("value", maxWireElems)
	if err != nil {
		return nil, err
	}
	b, err := d.Next(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]Value, n)
	for i := range out {
		out[i] = Value(wireOrder.Uint64(b[i*8:]))
	}
	return out, nil
}

func (d *Decoder) int32s() ([]int32, error) {
	n, err := d.count("int32", maxWireElems)
	if err != nil {
		return nil, err
	}
	b, err := d.Next(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(wireOrder.Uint32(b[i*4:]))
	}
	return out, nil
}

// Float32s reads n raw cells written by AppendFloat32s. The caller has
// bounded n; the cells are allocated only once their bytes are in hand.
func (d *Decoder) Float32s(n int) ([]float32, error) {
	b, err := d.Next(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(wireOrder.Uint32(b[i*4:]))
	}
	return out, nil
}

// AppendJagged appends j's wire form to dst.
func AppendJagged(dst []byte, j Jagged) []byte {
	return appendInt32s(AppendValues(append(dst, tagJagged), j.Values), j.Offsets)
}

// WriteJagged serializes j to w.
func WriteJagged(w io.Writer, j Jagged) error {
	return WriteWith(w, func(dst []byte) []byte { return AppendJagged(dst, j) })
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
	offs, err := d.int32s()
	if err != nil {
		return Jagged{}, err
	}
	j := Jagged{Values: vals, Offsets: offs}
	if err := j.Validate(); err != nil {
		return Jagged{}, err
	}
	return j, nil
}

// ReadJagged deserializes a jagged tensor from r.
func ReadJagged(r ByteReader) (Jagged, error) {
	d := NewReaderDecoder(r)
	defer d.Release()
	return d.Jagged()
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
	keys := make([]string, n)
	tensors := make([]Jagged, n)
	for i := range keys {
		if keys[i], err = d.string(); err != nil {
			return nil, nil, err
		}
		if tensors[i], err = d.Jagged(); err != nil {
			return nil, nil, err
		}
	}
	return keys, tensors, nil
}

// AppendKJT appends k's wire form to dst.
func AppendKJT(dst []byte, k *KJT) []byte {
	return appendKeyed(append(dst, tagKJT), k.keys, k.tensors)
}

// WriteKJT serializes a KJT to w.
func WriteKJT(w io.Writer, k *KJT) error {
	return WriteWith(w, func(dst []byte) []byte { return AppendKJT(dst, k) })
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

// ReadKJT deserializes a KJT from r.
func ReadKJT(r ByteReader) (*KJT, error) {
	d := NewReaderDecoder(r)
	defer d.Release()
	return d.KJT()
}

// AppendIKJT appends ik's wire form, including its inverse lookup, to dst.
func AppendIKJT(dst []byte, ik *IKJT) []byte {
	return appendInt32s(appendKeyed(append(dst, tagIKJT), ik.keys, ik.tensors), ik.inverseLookup)
}

// WriteIKJT serializes an IKJT (including its inverse lookup) to w.
func WriteIKJT(w io.Writer, ik *IKJT) error {
	return WriteWith(w, func(dst []byte) []byte { return AppendIKJT(dst, ik) })
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
	inverse, err := d.int32s()
	if err != nil {
		return nil, err
	}
	return ikjtFromParts(keys, tensors, inverse)
}

// ReadIKJT deserializes an IKJT from r.
func ReadIKJT(r ByteReader) (*IKJT, error) {
	d := NewReaderDecoder(r)
	defer d.Release()
	return d.IKJT()
}

// AppendDense appends d's wire form to dst.
func AppendDense(dst []byte, d Dense) []byte {
	dst = binary.AppendUvarint(append(dst, tagDense), uint64(d.RowsN))
	return AppendFloat32s(binary.AppendUvarint(dst, uint64(d.Cols)), d.Data)
}

// WriteDense serializes a dense tensor to w.
func WriteDense(w io.Writer, d Dense) error {
	return WriteWith(w, func(dst []byte) []byte { return AppendDense(dst, d) })
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

// ReadDense deserializes a dense tensor from r.
func ReadDense(r ByteReader) (Dense, error) {
	d := NewReaderDecoder(r)
	defer d.Release()
	return d.Dense()
}

// AppendPartial appends p's wire form to dst: the lookup travels as one
// flat int32 block, offset then length per row.
func AppendPartial(dst []byte, p *PartialIKJT) []byte {
	dst = AppendValues(appendString(append(dst, tagPartial), p.Key), p.Values)
	dst, out := extend(binary.AppendUvarint(dst, uint64(2*len(p.Lookup))), 8*len(p.Lookup))
	for i, w := range p.Lookup {
		wireOrder.PutUint32(out[i*8:], uint32(w[0]))
		wireOrder.PutUint32(out[i*8+4:], uint32(w[1]))
	}
	return dst
}

// WritePartial serializes a partial IKJT to w.
func WritePartial(w io.Writer, p *PartialIKJT) error {
	return WriteWith(w, func(dst []byte) []byte { return AppendPartial(dst, p) })
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
	flat, err := d.int32s()
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("tensor: partial lookup has odd length %d", len(flat))
	}
	p := &PartialIKJT{Key: key, Values: vals, Lookup: make([][2]int32, len(flat)/2)}
	for i := range p.Lookup {
		p.Lookup[i] = [2]int32{flat[2*i], flat[2*i+1]}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadPartial deserializes a partial IKJT from r.
func ReadPartial(r ByteReader) (*PartialIKJT, error) {
	d := NewReaderDecoder(r)
	defer d.Release()
	return d.Partial()
}
