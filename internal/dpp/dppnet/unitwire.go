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

// encodeFileUnit serializes one unit for a file-unit frame. The frame has
// no place for head rows: a unit stream is cut on batch boundaries (the
// client cuts the carry), so a scan cut at an offset is refused, not
// shipped short.
func encodeFileUnit(w io.Writer, u *dpp.FileUnit) error {
	if u.Scan.Carry != 0 || u.Scan.Head != nil {
		return fmt.Errorf("dppnet: file unit %d (%s) was cut at carry %d; the unit frame carries boundary-aligned scans only", u.Index, u.File, u.Scan.Carry)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(u.Index)); err != nil {
		return err
	}
	hit := byte(0)
	if u.Hit {
		hit = 1
	}
	if _, err := w.Write([]byte{hit}); err != nil {
		return err
	}
	if err := putUvarint(uint64(u.Scan.Dense)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(u.Scan.Keys))); err != nil {
		return err
	}
	for _, k := range u.Scan.Keys {
		if err := putUvarint(uint64(len(k))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, k); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(u.Scan.Batches))); err != nil {
		return err
	}
	for _, b := range u.Scan.Batches {
		if err := b.Encode(w); err != nil {
			return err
		}
	}
	var tail []datagen.Sample
	if u.Scan.Tail != nil {
		tail = u.Scan.Tail.Samples()
	}
	if err := putUvarint(uint64(len(tail))); err != nil {
		return err
	}
	return datagen.EncodeSamples(w, tail)
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
	for i := 0; i < nBatches; i++ {
		b, err := reader.DecodeBatch(r)
		if err != nil {
			return nil, fmt.Errorf("dppnet: file-unit batch %d: %w", i, err)
		}
		scan.Batches = append(scan.Batches, b)
	}
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
