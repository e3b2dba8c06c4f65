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
// accounting predicts (Table 3 "Send Bytes"); TestWireBytesMatchEncoding
// pins the two together. The same codec frames batches on the dppnet
// TCP transport, so decoding must fail cleanly — never panic — on
// arbitrary bytes (FuzzDecodeBatch pins that).

const (
	batchMagic = "RBAT"
	statsMagic = "RSTS"
)

// ByteReader is the reader constraint of the wire decoders: any buffered
// byte source (*bytes.Reader, *bufio.Reader). Exported so transports
// like dppnet can name it when composing the codec.
type ByteReader = tensor.ByteReader

// AppendTo appends the batch's wire form to dst: the encoder. A transport
// that frames batches appends straight into its frame buffer.
func (b *Batch) AppendTo(dst []byte) []byte {
	// WireBytes counts the cells; the tags, counts and key names around
	// them are some tens of bytes a feature. One growth up front instead of
	// a doubling ladder when dst is new.
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

// DecodeBatch reads a batch encoded by Encode from r, consuming exactly
// the batch's bytes.
func DecodeBatch(r ByteReader) (*Batch, error) {
	d := tensor.NewReaderDecoder(r)
	defer d.Release()
	return decodeBatch(&d)
}

// DecodeBatchFrom decodes the batch at the front of src in place and
// returns what follows it. The batch holds no reference to src.
func DecodeBatchFrom(src []byte) (*Batch, []byte, error) {
	d := tensor.NewDecoder(src)
	b, err := decodeBatch(&d)
	return b, d.Rest(), err
}

// decodeBatch is the decoder, whichever input d reads.
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
	return b, b.Validate()
}

// statsFields enumerates every Stats field in wire order: the three
// per-stage times (nanoseconds) followed by the six deterministic work
// counters. All are non-negative by construction, so they serialize as
// uvarints.
func statsFields(s *Stats) [9]*int64 {
	return [9]*int64{
		(*int64)(&s.FillTime), (*int64)(&s.ConvertTime), (*int64)(&s.ProcessTime),
		&s.ReadBytes, &s.SentBytes,
		&s.RowsDecoded, &s.BatchesProduced, &s.ConvertValues, &s.ProcessOps,
	}
}

// Encode serializes the stats — the trailing accounting frame a dppnet
// server ships after a remote session's final batch, so a trainer on the
// other side of the wire sees the same Stats a local session reports.
func (s Stats) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, statsMagic); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	for _, f := range statsFields(&s) {
		n := binary.PutUvarint(hdr[:], uint64(*f))
		if _, err := w.Write(hdr[:n]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeStats reads stats encoded by Stats.Encode.
func DecodeStats(r ByteReader) (Stats, error) {
	magic := make([]byte, len(statsMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return Stats{}, fmt.Errorf("reader: stats magic: %w", err)
	}
	if string(magic) != statsMagic {
		return Stats{}, fmt.Errorf("reader: bad stats magic %q", magic)
	}
	var s Stats
	for _, f := range statsFields(&s) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return Stats{}, err
		}
		if v > 1<<62 {
			return Stats{}, fmt.Errorf("reader: implausible stats counter %d", v)
		}
		*f = int64(v)
	}
	return s, nil
}
