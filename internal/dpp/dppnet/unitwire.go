package dppnet

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/tensor"
)

// A unit stream is, per file and in file-list order, the file's head when
// the plan carries rows into it, the file's complete batches — each leaves
// the server as it is cut — and then the file's closing record. Each is one
// piece frame, whose payload is (counts uvarint):
//
//	index | chain (8 bytes) | kind | carry (heads only) | body
//
// index counts the stream's piece frames from 0, and chain is the rolling
// hash after folding everything behind it (one chainStep). kind is
// pieceBatch, pieceHead or pieceTail; a head's carry — the rows carried
// into the file, 1 to the batch size less one — says which carry it
// completes. A batch's body is reader.Batch.AppendTo; a head's or a
// closing record's is its rows:
//
//	dense | nKeys (len-prefixed keys)... | rows (dwrf.Chunk wire codec)
//
// The rows are the column chunk they are on both sides of the wire, and
// hold only the features the spec consumes. Which those are does not
// travel: the client owns the spec (reader.Spec.ConsumedFeatures) and the
// frame's keys place them.
//
// Neither the file nor whether a cache served it travels: files arrive
// strictly in file-list order and the stream index refuses a missing or
// repeated frame, so order names the file, and the eof frame's stats count
// the cache's hits. Decode bounds every count before allocating, in the
// same adversarial posture as the batch and stats codecs — a forged frame
// fails cleanly, it never allocates the forgery.
const (
	// maxUnitKeys bounds a piece's schema width; no schema in the
	// reproduction is near this.
	maxUnitKeys = 1 << 16
	// maxUnitKeyLen bounds one feature name's length.
	maxUnitKeyLen = 1 << 16
	// maxUnitDense bounds the schema's dense width.
	maxUnitDense = 1 << 20
)

// The piece kinds; any other kind byte is a protocol error.
const (
	pieceBatch = byte(0)
	pieceHead  = byte(1)
	pieceTail  = byte(2)
)

// appendPiece appends a piece's content — kind, a head's carry, body — to
// dst: what a piece frame stamps and the chain folds.
func appendPiece(dst []byte, p dpp.UnitPiece) []byte {
	if p.Batch != nil {
		return p.Batch.AppendTo(append(dst, pieceBatch))
	}
	rows := p.Rows()
	// The rows are raw, so they can outweigh the batches beside them: where
	// dst is too small it is grown once, to the rows' cells plus the framing
	// around them, not up a doubling ladder.
	cells := int(rows.MemBytes())
	dst = slices.Grow(dst, cells+cells/32+1024)
	if p.Head != nil {
		dst = binary.AppendUvarint(append(dst, pieceHead), uint64(p.Carry))
	} else {
		dst = append(dst, pieceTail)
	}
	keys := rows.Keys()
	dst = binary.AppendUvarint(dst, uint64(rows.DenseWidth()))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	}
	return rows.AppendTo(dst)
}

// decodeRows parses a head's or a closing record's body in place; nothing
// of the chunk aliases it. consumed names the features the chunk holds.
// Bytes after the rows are a protocol error.
func decodeRows(body []byte, consumed []string) (*dwrf.Chunk, error) {
	d := tensor.NewDecoder(body)
	bounded := func(name string, max uint64) (int, error) {
		v, err := d.Uvarint()
		if err != nil {
			return 0, fmt.Errorf("dppnet: piece %s: %w", name, err)
		}
		if v > max {
			return 0, fmt.Errorf("dppnet: implausible piece %s %d", name, v)
		}
		return int(v), nil
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
	var keys []string
	if nKeys > 0 {
		keys = make([]string, nKeys)
		for i := range keys {
			kl, err := bounded("key length", maxUnitKeyLen)
			if err != nil {
				return nil, err
			}
			kb, err := d.Next(kl)
			if err != nil {
				return nil, fmt.Errorf("dppnet: piece key: %w", err)
			}
			keys[i] = string(kb)
		}
	}
	cols := make([]int, len(consumed))
	for p, f := range consumed {
		if cols[p] = slices.Index(keys, f); cols[p] < 0 {
			return nil, fmt.Errorf("dppnet: piece rows lack consumed feature %q", f)
		}
	}
	rows, err := dwrf.DecodeChunk(&d, keys, dense, cols)
	if err != nil {
		return nil, fmt.Errorf("dppnet: piece rows: %w", err)
	}
	if n := len(d.Rest()); n != 0 {
		return nil, fmt.Errorf("dppnet: %d trailing bytes after a piece's rows", n)
	}
	return rows, nil
}
