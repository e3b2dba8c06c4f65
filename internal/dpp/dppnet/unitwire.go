package dppnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/reader"
)

// File-unit frame payload layout (all counts uvarint):
//
//	index | hit byte | dense | nKeys (len-prefixed keys)... |
//	nBatches (reader.Batch wire codec each) |
//	nTail (datagen.Sample wire codec each)
//
// The tail is a column chunk on both sides of the wire and rows only on
// it: encode writes the chunk's row views (full-width, empty lists for
// features the spec does not consume), decode gathers the rows back into a
// chunk of the consumed columns.
//
// The file path itself does not travel: units arrive strictly in
// file-list order and the client owns the list it asked for, so the
// subset index names the file. Decode bounds every count before
// allocating, in the same adversarial posture as the batch and stats
// codecs — a forged frame fails cleanly, it never allocates the forgery.
const (
	// maxUnitKeys bounds a unit's schema width; no schema in the
	// reproduction is near this.
	maxUnitKeys = 1 << 16
	// maxUnitKeyLen bounds one feature name's length.
	maxUnitKeyLen = 1 << 16
	// maxUnitBatches bounds one file's complete-batch count.
	maxUnitBatches = 1 << 20
	// maxUnitTail bounds one file's tail-row count (always under the
	// spec's batch size in honest traffic).
	maxUnitTail = 1 << 24
	// maxUnitIndex bounds the subset index; the client additionally
	// requires indices to arrive exactly in order.
	maxUnitIndex = 1 << 32
	// maxUnitDense bounds the schema's dense width, mirroring the sample
	// codec's own cap.
	maxUnitDense = 1 << 20
)

// appendFileUnit appends one unit's file-unit frame payload to dst. The
// frame has no place for head rows: a unit stream is cut on batch
// boundaries (the client cuts the carry), so a scan cut at an offset is
// refused, not shipped short.
func appendFileUnit(dst []byte, u *dpp.FileUnit) ([]byte, error) {
	if u.Scan.Carry != 0 || u.Scan.Head != nil {
		return dst, fmt.Errorf("dppnet: file unit %d (%s) was cut at carry %d; the unit frame carries boundary-aligned scans only", u.Index, u.File, u.Scan.Carry)
	}
	// A unit is a whole file, so where dst is new it is grown once, to
	// the batches' and the tail's cells plus the framing around them: grown
	// as it fills it would end up to twice the size, for the stream's life.
	cells := 0
	for _, b := range u.Scan.Batches {
		cells += b.WireBytes()
	}
	if u.Scan.Tail != nil {
		cells += int(u.Scan.Tail.MemBytes())
	}
	dst = slices.Grow(dst, cells+cells/32+1024)
	dst = binary.AppendUvarint(dst, uint64(u.Index))
	if u.Hit {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(u.Scan.Dense))
	dst = binary.AppendUvarint(dst, uint64(len(u.Scan.Keys)))
	for _, k := range u.Scan.Keys {
		dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(u.Scan.Batches)))
	for _, b := range u.Scan.Batches {
		dst = b.AppendTo(dst)
	}
	var tail []datagen.Sample
	if u.Scan.Tail != nil {
		tail = u.Scan.Tail.Samples()
	}
	// The rows have a Writer codec only; a Buffer over dst appends in place.
	w := bytes.NewBuffer(binary.AppendUvarint(dst, uint64(len(tail))))
	err := datagen.EncodeSamples(w, tail)
	return w.Bytes(), err
}

// decodeFileUnit parses a file-unit frame payload. The returned unit's
// File is empty — the caller maps the subset index back to its own file
// list. The client owns the spec, so it names the features the tail chunk
// holds (reader.Spec.ConsumedFeatures); the frame's keys place them.
// Trailing bytes after the tail rows are a protocol error.
func decodeFileUnit(payload []byte, consumed []string) (*dpp.FileUnit, error) {
	r := bytes.NewReader(payload)
	bounded := func(name string, max uint64) (int, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("dppnet: file-unit %s: %w", name, err)
		}
		if v > max {
			return 0, fmt.Errorf("dppnet: implausible file-unit %s %d", name, v)
		}
		return int(v), nil
	}
	idx, err := bounded("index", maxUnitIndex)
	if err != nil {
		return nil, err
	}
	hit, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dppnet: file-unit hit flag: %w", err)
	}
	if hit > 1 {
		return nil, fmt.Errorf("dppnet: malformed file-unit hit flag %d", hit)
	}
	dense, err := bounded("dense width", maxUnitDense)
	if err != nil {
		return nil, err
	}
	nKeys, err := bounded("key count", maxUnitKeys)
	if err != nil {
		return nil, err
	}
	scan := &reader.FileScan{Dense: dense}
	if nKeys > 0 {
		scan.Keys = make([]string, nKeys)
		for i := range scan.Keys {
			kl, err := bounded("key length", maxUnitKeyLen)
			if err != nil {
				return nil, err
			}
			kb := make([]byte, kl)
			if _, err := io.ReadFull(r, kb); err != nil {
				return nil, fmt.Errorf("dppnet: file-unit key: %w", err)
			}
			scan.Keys[i] = string(kb)
		}
	}
	nBatches, err := bounded("batch count", maxUnitBatches)
	if err != nil {
		return nil, err
	}
	// The batches are nearly all of the payload: they are decoded from it
	// in place, and r picks up again behind them.
	rest := payload[len(payload)-r.Len():]
	for i := 0; i < nBatches; i++ {
		var b *reader.Batch
		if b, rest, err = reader.DecodeBatchFrom(rest); err != nil {
			return nil, fmt.Errorf("dppnet: file-unit batch %d: %w", i, err)
		}
		scan.Batches = append(scan.Batches, b)
	}
	r.Reset(rest)
	nTail, err := bounded("tail count", maxUnitTail)
	if err != nil {
		return nil, err
	}
	var tail []datagen.Sample
	for i := 0; i < nTail; i++ {
		s, err := datagen.DecodeSample(r)
		if err != nil {
			return nil, fmt.Errorf("dppnet: file-unit tail row %d: %w", i, err)
		}
		// Every row must be as wide as the schema says, so that the chunk's
		// size is vouched for by bytes received, not by the header's claim.
		if len(s.Dense) != dense || len(s.Sparse) != nKeys {
			return nil, fmt.Errorf("dppnet: file-unit tail row %d is %d dense, %d sparse wide; schema says %d, %d",
				i, len(s.Dense), len(s.Sparse), dense, nKeys)
		}
		tail = append(tail, s)
	}
	cols := make([]int, len(consumed))
	for p, f := range consumed {
		if cols[p] = slices.Index(scan.Keys, f); cols[p] < 0 {
			return nil, fmt.Errorf("dppnet: file unit lacks consumed feature %q", f)
		}
	}
	if scan.Tail, err = dwrf.ChunkFromSamples(tail, scan.Keys, dense, cols); err != nil {
		return nil, fmt.Errorf("dppnet: file-unit tail: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("dppnet: %d trailing bytes after file unit", r.Len())
	}
	return &dpp.FileUnit{Index: idx, Scan: scan, Hit: hit == 1}, nil
}
