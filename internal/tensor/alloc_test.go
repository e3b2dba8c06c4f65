package tensor_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// checkpointHeader is a checkpoint's configuration, written by hand: a
// model with one table of rows rows, everything else one wide.
func checkpointHeader(rows uint64) []byte {
	b := binary.AppendUvarint([]byte("RDMD"), 1)
	for _, v := range []uint64{1, 1, 0, 0, 1} { // version, dims, no hidden layers, one feature
		b = binary.AppendUvarint(b, v)
	}
	b = append(binary.AppendUvarint(b, 1), 'a')
	b = binary.AppendUvarint(binary.AppendUvarint(b, 0), rows)
	b = binary.LittleEndian.AppendUint32(binary.AppendUvarint(b, 1), math.Float32bits(0.5))
	return binary.AppendUvarint(binary.AppendUvarint(b, 0), 0)
}

// TestForgedCountsAllocateByArrival: every decoder of bytes from outside
// the process — a wire payload, a raw-log message, a checkpoint file —
// believes a count only as far as the bytes behind it. Each input below is
// N bytes whose count claims at least 2^24 cells (or, for a KJT, the most
// keys the format allows); the decode must fail, having allocated no more
// than N, one tensor.ReadInto chunk, and a fixed slack for the readers and
// the error around it.
func TestForgedCountsAllocateByArrival(t *testing.T) {
	const chunk, slack = 64 << 10, 16 << 10
	sample := datagen.Sample{}.AppendTo(nil)[:33] // ids and label
	sample = binary.LittleEndian.AppendUint64(sample, 1)
	for _, tc := range []struct {
		name   string
		input  []byte
		decode func([]byte) error
	}{
		{"tensor.ReadInto", make([]byte, 10), func(in []byte) error {
			var buf []byte
			_, err := tensor.ReadInto(bytes.NewReader(in), &buf, 1<<24)
			return err
		}},
		{"tensor.Decoder.KJT, 2^16-1 keys", binary.AppendUvarint([]byte{2}, 1<<16-1), func(in []byte) error {
			d := tensor.NewDecoder(in)
			_, err := d.KJT()
			return err
		}},
		{"tensor.Decoder.Values, 2^24 values at width 8", append(binary.AppendUvarint(nil, 1<<24), 8, 0), func(in []byte) error {
			d := tensor.NewDecoder(in)
			_, err := d.Values()
			return err
		}},
		{"tensor.Decoder.Jagged, 2^24 row lengths at width 4", append([]byte{1, 0, 0}, append(binary.AppendUvarint(nil, 1<<24), 4, 0)...), func(in []byte) error {
			d := tensor.NewDecoder(in)
			_, err := d.Jagged()
			return err
		}},
		{"reader.DecodeBatch, 2^24 labels", func() []byte {
			b := append([]byte("RBAT\x00"), tensor.AppendDense(nil, tensor.Dense{})...)
			return binary.AppendUvarint(b, 1<<24)
		}(), func(in []byte) error {
			_, err := reader.DecodeBatch(bytes.NewReader(in))
			return err
		}},
		{"dwrf.DecodeChunk, 2^24 labels", binary.AppendUvarint(nil, 1<<24), func(in []byte) error {
			d := tensor.NewDecoder(in)
			_, err := dwrf.DecodeChunk(&d, nil, 0, nil)
			return err
		}},
		{"datagen.DecodeSample, a list of 2^24 values", binary.LittleEndian.AppendUint64(sample, 1<<24), func(in []byte) error {
			_, err := datagen.DecodeSample(in)
			return err
		}},
		{"trainer.Load, a first tensor of 2^28-1 floats", append(binary.AppendUvarint(checkpointHeader(1), 1<<28-1), make([]byte, 200)...), func(in []byte) error {
			_, err := trainer.Load(bytes.NewReader(in))
			return err
		}},
		{"trainer.Load, a header of 2^24 table rows", append(checkpointHeader(1<<24), make([]byte, 100)...), func(in []byte) error {
			_, err := trainer.Load(bytes.NewReader(in))
			return err
		}},
	} {
		var before, after runtime.MemStats
		// TotalAlloc is process-wide; the best of three runs is this call's.
		// Two collections before each leave no garbage of an earlier run
		// to be counted against it.
		grew := ^uint64(0)
		for try := 0; try < 3; try++ {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := tc.decode(tc.input)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: a forged %d-byte input decoded", tc.name, len(tc.input))
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(len(tc.input) + chunk + slack); grew > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, more than input + one chunk + slack (%d)", tc.name, len(tc.input), grew, limit)
		}
	}
}
