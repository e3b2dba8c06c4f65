package reader

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/tensor"
)

// Wire format for preprocessed batches: what a reader actually ships to a
// trainer over its NIC. Deduplicated tensors serialize in deduplicated
// form, so the encoded size realizes the egress savings the byte
// accounting predicts (Table 3 "Send Bytes"). Every integer block —
// values, row lengths, inverse and partial lookups — then travels at the
// width its span needs (tensor.WidthCodec): two bytes an ID after RM1's
// hash and clamp, where WireBytes, the paper's model, counts eight. The
// encoding so never exceeds WireBytes; TestWireBytesMatchEncoding counts
// it exactly. The same codec frames batches on the dppnet TCP transport,
// so decoding must fail cleanly — never panic — on arbitrary bytes
// (FuzzDecodeBatch pins that).

const batchMagic = "RBAT"

// AppendTo appends the batch's wire form to dst: the encoder. A transport
// that frames batches appends straight into its frame buffer.
func (b *Batch) AppendTo(dst []byte) []byte {
	// WireBytes counts the cells at their memory widths, which the narrow
	// blocks never exceed; the tags, counts, width headers and key names
	// around them are some tens of bytes a feature. One growth up front
	// instead of a doubling ladder when dst is new.
	cells := b.WireBytes()
	dst = slices.Grow(dst, cells+cells/32+1024)
	dst = binary.AppendUvarint(append(dst, batchMagic...), uint64(b.Size))
	dst = tensor.AppendDense(dst, b.Dense)
	dst = tensor.AppendFloat32s(binary.AppendUvarint(dst, uint64(len(b.Labels))), b.Labels)
	if b.KJT != nil {
		dst = tensor.AppendKJT(append(dst, 1), b.KJT)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.IKJTs)))
	for _, ik := range b.IKJTs {
		dst = tensor.AppendIKJT(dst, ik)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Partials)))
	for _, p := range b.Partials {
		dst = tensor.AppendPartial(dst, p)
	}
	return binary.AppendUvarint(dst, uint64(b.OriginalSparseValues))
}

// Encode serializes the batch to w in one Write.
func (b *Batch) Encode(w io.Writer) error {
	return tensor.WriteWith(w, b.AppendTo)
}

// DecodeBatch reads r to its end and decodes the batch Encode wrote there
// in place; bytes after the batch are an error.
func DecodeBatch(r tensor.ByteReader) (*Batch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	b, rest, err := DecodeBatchFrom(data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("reader: %d bytes after the batch", len(rest))
	}
	return b, err
}

// DecodeBatchFrom decodes the batch at the front of src in place and
// returns what follows it. The batch holds no reference to src.
func DecodeBatchFrom(src []byte) (*Batch, []byte, error) {
	d := tensor.NewDecoder(src)
	b, err := decodeBatch(&d)
	return b, d.Rest(), err
}

// decodeBatch is the decoder.
func decodeBatch(d *tensor.Decoder) (*Batch, error) {
	magic, err := d.Next(len(batchMagic))
	if err != nil {
		return nil, fmt.Errorf("reader: batch magic: %w", err)
	}
	if string(magic) != batchMagic {
		return nil, fmt.Errorf("reader: bad batch magic %q", magic)
	}
	size, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	const maxBatch = 1 << 24
	if size > maxBatch {
		return nil, fmt.Errorf("reader: implausible batch size %d", size)
	}
	b := &Batch{Size: int(size)}

	if b.Dense, err = d.Dense(); err != nil {
		return nil, err
	}
	nLabels, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nLabels > maxBatch {
		return nil, fmt.Errorf("reader: implausible label count %d", nLabels)
	}
	if b.Labels, err = d.Float32s(int(nLabels)); err != nil {
		return nil, err
	}
	hasKJT, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if hasKJT == 1 {
		if b.KJT, err = d.KJT(); err != nil {
			return nil, err
		}
	}
	nIK, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nIK > 1<<16 {
		return nil, fmt.Errorf("reader: implausible IKJT count %d", nIK)
	}
	for i := uint64(0); i < nIK; i++ {
		ik, err := d.IKJT()
		if err != nil {
			return nil, err
		}
		b.IKJTs = append(b.IKJTs, ik)
	}
	nP, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nP > 1<<16 {
		return nil, fmt.Errorf("reader: implausible partial count %d", nP)
	}
	for i := uint64(0); i < nP; i++ {
		p, err := d.Partial()
		if err != nil {
			return nil, err
		}
		b.Partials = append(b.Partials, p)
	}
	orig, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	b.OriginalSparseValues = int(orig)
	return b, b.validate(false)
}
