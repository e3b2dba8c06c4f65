package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestRawLogBytesAreFixed: the raw log's bytes are what the scribe
// experiment compresses, so a fixed partition's log is held to the digest
// of the bytes the format has always had.
func TestRawLogBytesAreFixed(t *testing.T) {
	const want = "dc6c3931cb3fec3daeab163893480d1265d90803eeb82cd4905ab4a9dcbf5ddc"
	g := NewGenerator(testSchema(), GeneratorConfig{Sessions: 5, MeanSamplesPerSession: 4, Seed: 2})
	var log []byte
	for _, s := range g.GeneratePartition() {
		log = s.AppendTo(log)
	}
	if got := sha256.Sum256(log); len(log) != 38741 || hex.EncodeToString(got[:]) != want {
		t.Fatalf("log of %d bytes, sha256 %x; want 38741 bytes, %s", len(log), got, want)
	}
}

// FuzzDecodeSample: a raw-log payload comes off the message bus, so
// DecodeSample on arbitrary bytes either fails cleanly or yields the one
// sample whose AppendTo is exactly those bytes — the format has one
// encoding per sample, and the decoder accepts nothing else.
func FuzzDecodeSample(f *testing.F) {
	g := NewGenerator(testSchema(), GeneratorConfig{Sessions: 2, MeanSamplesPerSession: 2, Seed: 3})
	whole := g.GeneratePartition()[0].AppendTo(nil)
	f.Add(whole)
	f.Add(Sample{}.AppendTo(nil))
	for _, cut := range []int{1, 33, 41, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	// One list that claims 2^24 values with none behind it.
	forged := binary.LittleEndian.AppendUint64(Sample{}.AppendTo(nil)[:33], 1)
	f.Add(binary.LittleEndian.AppendUint64(forged, 1<<24))
	f.Add(append(whole, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSample(data)
		if err != nil {
			return
		}
		if back := s.AppendTo(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted %d bytes that re-encode as %d different ones", len(data), len(back))
		}
	})
}
