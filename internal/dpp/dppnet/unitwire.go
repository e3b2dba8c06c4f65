package dppnet

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// File-unit frame payload layout (all counts uvarint):
//
//	index | hit byte | dense | nKeys (len-prefixed keys)... |
//	nBatches (reader.Batch wire codec each) |
//	tail (dwrf.Chunk wire codec: the rows' columns)
//
// The tail is the column chunk it is on both sides of the wire, and holds
// only the features the spec consumes. Which those are does not travel: the
// client owns the spec (reader.Spec.ConsumedFeatures) and the frame's keys
// place them.
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
	// maxUnitIndex bounds the subset index; the client additionally
	// requires indices to arrive exactly in order.
	maxUnitIndex = 1 << 32
	// maxUnitDense bounds the schema's dense width.
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
	tail := u.Scan.Tail
	if tail == nil {
		tail = &dwrf.Chunk{}
	}
	// A unit is a whole file, so where dst is new it is grown once, to
	// the batches' and the tail's cells plus the framing around them: grown
	// as it fills it would end up to twice the size, for the stream's life.
	cells := int(tail.MemBytes())
	for _, b := range u.Scan.Batches {
		cells += b.WireBytes()
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
	return tail.AppendTo(dst), nil
}

// decodeFileUnit parses a file-unit frame payload in place. The returned
// unit's File is empty — the caller maps the subset index back to its own
// file list — and nothing of it aliases the payload. consumed names the
// features the tail chunk holds. Trailing bytes after the tail are a
// protocol error.
func decodeFileUnit(payload []byte, consumed []string) (*dpp.FileUnit, error) {
	d := tensor.NewDecoder(payload)
	bounded := func(name string, max uint64) (int, error) {
		v, err := d.Uvarint()
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
	hit, err := d.Next(1)
	if err != nil {
		return nil, fmt.Errorf("dppnet: file-unit hit flag: %w", err)
	}
	if hit[0] > 1 {
		return nil, fmt.Errorf("dppnet: malformed file-unit hit flag %d", hit[0])
	}
	dense, err := bounded("dense width", maxUnitDense)
	if err != nil {
		return nil, err
	}
	// A key is at least its length byte, so the bytes left bound the count.
	nKeys, err := bounded("key count", min(maxUnitKeys, uint64(len(d.Rest()))))
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
			kb, err := d.Next(kl)
			if err != nil {
				return nil, fmt.Errorf("dppnet: file-unit key: %w", err)
			}
			scan.Keys[i] = string(kb)
		}
	}
	nBatches, err := bounded("batch count", maxUnitBatches)
	if err != nil {
		return nil, err
	}
	// The batches are nearly all of the payload; d picks up behind them.
	rest := d.Rest()
	for i := 0; i < nBatches; i++ {
		var b *reader.Batch
		if b, rest, err = reader.DecodeBatchFrom(rest); err != nil {
			return nil, fmt.Errorf("dppnet: file-unit batch %d: %w", i, err)
		}
		scan.Batches = append(scan.Batches, b)
	}
	d = tensor.NewDecoder(rest)
	cols := make([]int, len(consumed))
	for p, f := range consumed {
		if cols[p] = slices.Index(scan.Keys, f); cols[p] < 0 {
			return nil, fmt.Errorf("dppnet: file unit lacks consumed feature %q", f)
		}
	}
	if scan.Tail, err = dwrf.DecodeChunk(&d, scan.Keys, dense, cols); err != nil {
		return nil, fmt.Errorf("dppnet: file-unit tail: %w", err)
	}
	if n := len(d.Rest()); n != 0 {
		return nil, fmt.Errorf("dppnet: %d trailing bytes after file unit", n)
	}
	return &dpp.FileUnit{Index: idx, Hit: hit[0] == 1, Scan: scan}, nil
}
