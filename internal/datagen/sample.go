package datagen

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tensor"
)

// Sample is one training sample: an impression and its outcome, carrying
// the full feature snapshot logged at inference time (inference servers log
// features per request to avoid data leakage, paper §2.1).
type Sample struct {
	SessionID int64
	UserID    int64
	RequestID int64
	// Timestamp is microseconds since the partition start; the raw log
	// stream is ordered by this inference time, which interleaves sessions
	// (paper §3).
	Timestamp int64
	// Sparse holds one ID list per schema sparse feature, indexed in
	// schema order.
	Sparse [][]int64
	// Dense holds the dense float features.
	Dense []float32
	// Label is the impression outcome (e.g. click).
	Label int8
}

// Clone deep-copies the sample.
func (s Sample) Clone() Sample {
	out := s
	out.Sparse = make([][]int64, len(s.Sparse))
	for i, l := range s.Sparse {
		out.Sparse[i] = append([]int64(nil), l...)
	}
	out.Dense = append([]float32(nil), s.Dense...)
	return out
}

// AppendTo appends the sample in the raw-log wire format used by the
// inference→Scribe path. The format is deliberately value-dense so that
// black-box compression behaves like it does on production logs: duplicate
// feature values across co-located samples compress away. Layout, every
// integer a little-endian 8-byte cell:
//
//	session | user | request | timestamp | label byte |
//	list count | per list: value count, values |
//	dense count | dense float32 cells
func (s Sample) AppendTo(dst []byte) []byte {
	for _, v := range []int64{s.SessionID, s.UserID, s.RequestID, s.Timestamp} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, byte(s.Label)), uint64(len(s.Sparse)))
	for _, list := range s.Sparse {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(list)))
		for _, v := range list {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Dense)))
	return tensor.AppendFloat32s(dst, s.Dense)
}

// DecodeSample reads the one sample payload holds, as AppendTo wrote it.
// Every count is held against the bytes that follow it before anything is
// sized from it, and the sample must fill payload exactly.
func DecodeSample(payload []byte) (Sample, error) {
	le := binary.LittleEndian
	d := tensor.NewDecoder(payload)
	hdr, err := d.Next(4*8 + 1)
	if err != nil {
		return Sample{}, fmt.Errorf("datagen: sample header: %w", err)
	}
	s := Sample{
		SessionID: int64(le.Uint64(hdr)), UserID: int64(le.Uint64(hdr[8:])),
		RequestID: int64(le.Uint64(hdr[16:])), Timestamp: int64(le.Uint64(hdr[24:])),
		Label: int8(hdr[32]),
	}
	// count reads a count of width-byte cells, which the bytes left must hold.
	count := func(width int) (int, error) {
		b, err := d.Next(8)
		if err != nil {
			return 0, err
		}
		n := int64(le.Uint64(b))
		if n < 0 || n > int64(len(d.Rest())/width) {
			return 0, fmt.Errorf("implausible count %d", n)
		}
		return int(n), nil
	}
	n, err := count(8)
	if err != nil {
		return Sample{}, fmt.Errorf("datagen: sparse list count: %w", err)
	}
	s.Sparse = make([][]int64, n)
	for i := range s.Sparse {
		if n, err = count(8); err == nil {
			s.Sparse[i], err = d.Int64s(n)
		}
		if err != nil {
			return Sample{}, fmt.Errorf("datagen: sparse list %d: %w", i, err)
		}
	}
	if n, err = count(4); err == nil {
		s.Dense, err = d.Float32s(n)
	}
	if err != nil {
		return Sample{}, fmt.Errorf("datagen: dense: %w", err)
	}
	if rest := len(d.Rest()); rest != 0 {
		return Sample{}, fmt.Errorf("datagen: %d bytes after the sample", rest)
	}
	return s, nil
}
