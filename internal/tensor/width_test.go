package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// widthRun is a run of values whose span needs exactly w bytes: its
// greatest value, its least lo, and a few between. The greatest is lo plus
// the most w bytes hold, or MaxInt64 where that leaves int64 (width 8 over
// a base above MinInt64).
func widthRun(rng *rand.Rand, w int, lo int64) []int64 {
	if w == 0 {
		return nil
	}
	hi := lo + int64(widthMask(w))
	if hi < lo {
		hi = math.MaxInt64
	}
	span := uint64(hi) - uint64(lo)
	vals := []int64{hi, lo}
	for range 9 {
		off := rng.Uint64()
		if span < math.MaxUint64 {
			off %= span + 1
		}
		vals = append(vals, lo+int64(off))
	}
	return vals
}

// widthBases are the least values each width's runs start at: zero,
// positive and negative bases, and the two that put a run's span at either
// end of int64. Those a width below 8 cannot start at without leaving
// int64 are skipped.
func widthBases(w int) []int64 {
	reach := int64(widthMask(max(w, 1)))
	var bases []int64
	for _, lo := range []int64{0, 1, -1, 1000, -(1 << 40) - 3, math.MinInt64, math.MaxInt64 - reach} {
		if w == 0 || w == 8 || lo+reach >= lo {
			bases = append(bases, lo)
		}
	}
	return bases
}

// decodeFollowed decodes enc, followed by other bytes, and checks the
// Decoder stops where enc ends.
func decodeFollowed[T any](t *testing.T, name string, enc []byte, decode func(*Decoder) (T, error)) T {
	t.Helper()
	d := NewDecoder(append(slices.Clip(enc), "next"...))
	v, err := decode(&d)
	if err != nil || string(d.Rest()) != "next" {
		t.Fatalf("%s: %v, %d bytes left", name, err, len(d.Rest()))
	}
	return v
}

// TestWidthCodecRoundTripsEveryWidth: at every width from 0 to 8, over
// zero, positive and negative bases and spans reaching from MinInt64 to
// MaxInt64, the codec picks that width, a value appended one at a time
// reads back through At — where eight bytes follow it and where fewer do —
// and a block of them (Values, and an int32 block where the width fits)
// reads back through a Decoder.
func TestWidthCodecRoundTripsEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w <= 8; w++ {
		for _, lo := range widthBases(w) {
			vals := widthRun(rng, w, lo)
			c := NewWidthCodec(1, 0)
			if len(vals) > 0 {
				c = NewWidthCodec(vals[1], vals[0])
			}
			if c.Width != w || (w > 0 && c.Base != lo) {
				t.Fatalf("width %d base %d: codec %+v", w, lo, c)
			}
			hdr := c.AppendHeader(nil)
			if got, n, err := ParseWidthCodec(append(hdr, 0xff)); err != nil || got != c || n != len(hdr) {
				t.Fatalf("width %d base %d: header %x parsed as %+v, %d bytes, %v", w, lo, hdr, got, n, err)
			}
			var run []byte
			for _, v := range vals {
				run = c.Append(run, v)
			}
			if len(run) != len(vals)*w {
				t.Fatalf("width %d base %d: %d values took %d bytes", w, lo, len(vals), len(run))
			}
			padded := append(slices.Clip(run), make([]byte, 8)...)
			for i, v := range vals {
				if got, tight := c.At(padded[i*w:]), c.At(run[i*w:]); got != v || tight != v {
					t.Fatalf("width %d base %d: value %d read back as %d (padded) and %d (tight), want %d", w, lo, i, got, tight, v)
				}
			}

			enc := AppendValues(nil, vals)
			if back := decodeFollowed(t, "values", enc, (*Decoder).Values); !slices.Equal(back, vals) {
				t.Fatalf("width %d base %d: values %v decoded as %v", w, lo, vals, back)
			}
			if got := enc[uvarintLen(len(vals))]; int(got) != w {
				t.Fatalf("width %d base %d: block written at width %d", w, lo, got)
			}

			if w > 4 || lo < math.MinInt32 || lo+int64(widthMask(max(w, 1))) > math.MaxInt32 {
				continue
			}
			cells := make([]int32, len(vals))
			for i, v := range vals {
				cells[i] = int32(v)
			}
			int32s := func(d *Decoder) ([]int32, error) { return d.int32s("cell") }
			if back := decodeFollowed(t, "int32s", appendInts(nil, cells), int32s); !slices.Equal(back, cells) {
				t.Fatalf("width %d base %d: int32s %v decoded as %v", w, lo, cells, back)
			}
		}
	}
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// TestHostileBlocksAreRefused: a block whose header or body cannot be
// what an encoder wrote is refused before
// anything is sized from its count.
func TestHostileBlocksAreRefused(t *testing.T) {
	block := func(n int, hdr ...byte) []byte { return append(binary.AppendUvarint(nil, uint64(n)), hdr...) }
	jagged := func(vals []Value, lengths []byte) []byte {
		return append(AppendValues([]byte{tagJagged}, vals), lengths...)
	}
	values := func(d *Decoder) error { _, err := d.Values(); return err }
	int32s := func(d *Decoder) error { _, err := d.int32s("lookup"); return err }
	jag := func(d *Decoder) error { _, err := d.Jagged(); return err }
	for _, tc := range []struct {
		name, want string
		input      []byte
		decode     func(*Decoder) error
	}{
		{"width above 8", "no width of 0 to 8", block(1, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9), values},
		{"no header", "no width of 0 to 8", block(1), values},
		{"base truncated", "base truncated", block(1, 1, 0x80), values},
		{"values at width 0", "at width 0", block(1<<24, 0), values},
		{"n·w past the bytes left", "EOF", append(block(1<<24, 8, 0), make([]byte, 64)...), values},
		{"int32 block wider than 4", "leaves int32", block(1, 5, 0, 1, 2, 3, 4, 5), int32s},
		{"int32 block based above int32", "leaves int32", append(append(block(1, 1), binary.AppendVarint(nil, math.MaxInt32+1)...), 0), int32s},
		{"int32 block based below int32", "leaves int32", append(append(block(1, 1), binary.AppendVarint(nil, math.MinInt32-1)...), 0), int32s},
		{"int32 past MaxInt32 over base 0", "outside int32", block(2, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0x80), int32s},
		{"int32 past MaxInt32 over a base", "outside int32",
			append(append(block(1, 1), binary.AppendVarint(nil, math.MaxInt32-1)...), 5), int32s},
		{"lengths past the values", "passes the 2 values", jagged([]Value{1, 2}, block(2, 1, 0, 1, 2)), jag},
		{"lengths whose sum leaves int32", "passes the 2 values",
			jagged([]Value{1, 2}, append(block(3, 4, 0), appendCells(nil, []int32{1, math.MaxInt32, math.MaxInt32})...)), jag},
		{"lengths short of the values", "sum to 1, want 2", jagged([]Value{1, 2}, block(2, 1, 0, 1, 0)), jag},
		{"negative length", "length -1", jagged([]Value{1, 2}, append(block(2, 1), append(binary.AppendVarint(nil, -1), 0, 4)...)), jag},
	} {
		d := NewDecoder(tc.input)
		if err := tc.decode(&d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestEmptyBlocks: an empty block is a zero count and a width byte of 0,
// and a jagged tensor of no rows holds no values.
func TestEmptyBlocks(t *testing.T) {
	if got := AppendValues(nil, nil); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("empty values block %x", got)
	}
	d := NewDecoder(AppendJagged(nil, Jagged{}))
	if j, err := d.Jagged(); err != nil || j.Rows() != 0 || j.NumValues() != 0 {
		t.Fatalf("empty jagged decoded as %v, %v", j, err)
	}
}
