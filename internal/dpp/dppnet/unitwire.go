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
// batches as ordinary batch frames — each leaves the shard as it is cut —
// and then one file-unit frame, the file's closing record. A file-unit
// frame's payload layout (all counts uvarint):
//
//	index | hit byte | dense | nKeys (len-prefixed keys)... |
//	rows (dwrf.Chunk wire codec: the rows' columns)
//
// The rows are the column chunk they are on both sides of the wire, and hold
// only the features the spec consumes. Which those are does not travel: the
// client owns the spec (reader.Spec.ConsumedFeatures) and the frame's keys
// place them.
//
// The file path itself does not travel: files arrive strictly in
// file-list order and the client owns the list it asked for, so the
// subset index names the file, and the frames before a closing record are
// that file's: which of them is a head, the carries in ok say. Decode bounds every count before allocating, in
// the same adversarial posture as the batch and stats codecs — a forged
// frame fails cleanly, it never allocates the forgery.
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

// appendFileUnit appends a head or closing piece's file-unit frame payload
// to dst: the schema is the rows chunk's own.
func appendFileUnit(dst []byte, p dpp.UnitPiece) []byte {
	rows := p.Tail
	if p.Head != nil {
		rows = p.Head
	}
	// The rows are raw, so they can outweigh the batches beside them: where
	// dst is too small it is grown once, to the rows' cells plus the framing
	// around them, not up a doubling ladder.
	cells := int(rows.MemBytes())
	dst = slices.Grow(dst, cells+cells/32+1024)
	dst = binary.AppendUvarint(dst, uint64(p.Index))
	if p.Hit {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	keys := rows.Keys()
	dst = binary.AppendUvarint(dst, uint64(rows.DenseWidth()))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	}
	return rows.AppendTo(dst)
}

// decodeFileUnit parses a file-unit frame payload in place, as a closing
// piece: the caller, which knows the carries, makes a head of it. Its File
// is empty — the caller maps the subset index back to its own file list —
// and nothing of it aliases the payload. consumed names the features the
// rows chunk holds. Trailing bytes after the rows are a protocol error.
func decodeFileUnit(payload []byte, consumed []string) (dpp.UnitPiece, error) {
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
		return dpp.UnitPiece{}, err
	}
	hit, err := d.Next(1)
	if err != nil {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: file-unit hit flag: %w", err)
	}
	if hit[0] > 1 {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: malformed file-unit hit flag %d", hit[0])
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
	tail, err := dwrf.DecodeChunk(&d, keys, dense, cols)
	if err != nil {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: file-unit tail: %w", err)
	}
	if n := len(d.Rest()); n != 0 {
		return dpp.UnitPiece{}, fmt.Errorf("dppnet: %d trailing bytes after file unit", n)
	}
	return dpp.UnitPiece{Index: idx, Hit: hit[0] == 1, Tail: tail}, nil
}
