package dppnet

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/tensor"
)

// A unit stream is, per file and in file-list order, the file's head as a
// file-unit frame when the plan carries rows into it, the file's complete
// batches as ordinary batch frames — each leaves the server as it is cut —
// and then one file-unit frame, the file's closing record. A file-unit
// frame's payload layout (all counts uvarint):
//
//	index | flags | carry (heads only) | dense | nKeys (len-prefixed keys)... |
//	rows (dwrf.Chunk wire codec: the rows' columns)
//
// flags is one byte: unitHit marks a closing record the server's ScanCache
// served, unitHead a head, whose carry — the rows carried into the file,
// 1 to the batch size less one — follows. The rows are the column chunk
// they are on both sides of the wire, and hold only the features the spec
// consumes. Which those are does not travel: the client owns the spec
// (reader.Spec.ConsumedFeatures) and the frame's keys place them.
//
// The file path itself does not travel: files arrive strictly in file-list
// order, so the subset index names the file, and the frames before a
// closing record are that file's; a head says itself that it is one, and
// which carry it completes, so a list that grows while it is served needs
// no carries up front. Decode bounds every count before allocating, in the
// same adversarial posture as the batch and stats codecs — a forged frame
// fails cleanly, it never allocates the forgery.
const (
	// maxUnitKeys bounds a unit's schema width; no schema in the
	// reproduction is near this.
	maxUnitKeys = 1 << 16
	// maxUnitKeyLen bounds one feature name's length.
	maxUnitKeyLen = 1 << 16
	// maxUnitIndex bounds the subset index; the client additionally
	// requires indices to arrive exactly in order.
	maxUnitIndex = 1 << 32
	// maxUnitDense bounds the schema's dense width.
	maxUnitDense = 1 << 20
)

// The file-unit flag bits; any other bit set is a protocol error.
const (
	unitHit  = byte(1)
	unitHead = byte(2)
)

// appendFileUnit appends a head or closing piece's file-unit frame payload
// to dst: the schema is the rows chunk's own.
func appendFileUnit(dst []byte, p dpp.UnitPiece) []byte {
	rows, flags := p.Rows(), byte(0)
	if p.Head != nil {
		flags = unitHead
	} else if p.Hit {
		flags = unitHit
	}
	// The rows are raw, so they can outweigh the batches beside them: where
	// dst is too small it is grown once, to the rows' cells plus the framing
	// around them, not up a doubling ladder.
	cells := int(rows.MemBytes())
	dst = slices.Grow(dst, cells+cells/32+1024)
	dst = binary.AppendUvarint(dst, uint64(p.Index))
	dst = append(dst, flags)
	if p.Head != nil {
		dst = binary.AppendUvarint(dst, uint64(p.Carry))
	}
	keys := rows.Keys()
	dst = binary.AppendUvarint(dst, uint64(rows.DenseWidth()))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	}
	return rows.AppendTo(dst)
}

// decodeFileUnit parses a file-unit frame payload in place into a head or
// a closing piece, for a spec of batch rows a batch. check, when set, judges
// what the frame says before its schema and rows — its index, and the carry
// a head completes (0 for a closing record) — before anything is sized. The piece's File is empty — the
// caller maps the subset index back to its own file list — and nothing of
// it aliases the payload. consumed names the features the rows chunk holds.
// Trailing bytes after the rows are a protocol error.
func decodeFileUnit(payload []byte, consumed []string, batch int, check func(index, carry int) error) (dpp.UnitPiece, error) {
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
	p := dpp.UnitPiece{}
	var err error
	if p.Index, err = bounded("index", maxUnitIndex); err != nil {
		return p, err
	}
	flags, err := d.Next(1)
	switch {
	case err != nil:
		return p, fmt.Errorf("dppnet: file-unit flags: %w", err)
	case flags[0]&^(unitHit|unitHead) != 0:
		return p, fmt.Errorf("dppnet: file-unit flags %#x set an unknown bit", flags[0])
	case flags[0] == unitHit|unitHead:
		return p, fmt.Errorf("dppnet: a file-unit head marked as a cache hit")
	case flags[0] == unitHead:
		if p.Carry, err = bounded("carry", uint64(max(batch-1, 0))); err != nil {
			return p, err
		}
		if p.Carry == 0 {
			return p, fmt.Errorf("dppnet: a file-unit head completes no carried rows")
		}
	}
	p.Hit = flags[0] == unitHit
	if check != nil {
		if err := check(p.Index, p.Carry); err != nil {
			return p, err
		}
	}
	dense, err := bounded("dense width", maxUnitDense)
	if err != nil {
		return dpp.UnitPiece{}, err
	}
	// A key is at least its length byte, so the bytes left bound the count.
	nKeys, err := bounded("key count", min(maxUnitKeys, uint64(len(d.Rest()))))
	if err != nil {
		return dpp.UnitPiece{}, err
	}
	var keys []string
	if nKeys > 0 {
		keys = make([]string, nKeys)
		for i := range keys {
			kl, err := bounded("key length", maxUnitKeyLen)
			if err != nil {
				return dpp.UnitPiece{}, err
			}
			kb, err := d.Next(kl)
			if err != nil {
				return dpp.UnitPiece{}, fmt.Errorf("dppnet: file-unit key: %w", err)
			}
			keys[i] = string(kb)
		}
	}
	cols := make([]int, len(consumed))
	for p, f := range consumed {
		if cols[p] = slices.Index(keys, f); cols[p] < 0 {
			return dpp.UnitPiece{}, fmt.Errorf("dppnet: file unit lacks consumed feature %q", f)
		}
	}
	rows, err := dwrf.DecodeChunk(&d, keys, dense, cols)
	if err != nil {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: file-unit rows: %w", err)
	}
	if n := len(d.Rest()); n != 0 {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: %d trailing bytes after file unit", n)
	}
	if p.Carry > 0 {
		p.Head = rows
	} else {
		p.Tail = rows
	}
	return p, nil
}
