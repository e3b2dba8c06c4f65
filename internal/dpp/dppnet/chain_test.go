package dppnet

import (
	"bytes"
	"math/bits"
	"testing"
)

// refChainStep is XXH64(seed, data) written for reading against the
// published algorithm, not for speed: one byte index at a time, every
// word assembled by hand. It is the reference chainStep is checked
// against, and shares no code with it beyond the five primes.
func refChainStep(seed uint64, data []byte) uint64 {
	word := func(at, size int) uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(data[at+i]) << (8 * i)
		}
		return v
	}
	round := func(acc, lane uint64) uint64 {
		acc += lane * xxPrime2
		return bits.RotateLeft64(acc, 31) * xxPrime1
	}
	var h uint64
	at := 0
	if len(data) >= 32 {
		v := [4]uint64{seed + xxPrime1 + xxPrime2, seed + xxPrime2, seed, seed - xxPrime1}
		for ; len(data)-at >= 32; at += 32 {
			for lane := range v {
				v[lane] = round(v[lane], word(at+8*lane, 8))
			}
		}
		h = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) + bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, lane := range v {
			h ^= round(0, lane)
			h = h*xxPrime1 + xxPrime4
		}
	} else {
		h = seed + xxPrime5
	}
	h += uint64(len(data))
	for ; len(data)-at >= 8; at += 8 {
		h ^= round(0, word(at, 8))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(data)-at >= 4 {
		h ^= word(at, 4) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		at += 4
	}
	for ; at < len(data); at++ {
		h ^= uint64(data[at]) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// pattern fills n bytes with a sequence that repeats at no word size.
func pattern(n int) []byte {
	b := make([]byte, n)
	x := uint32(0x9E3779B9)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// TestChainStepKnownAnswers pins protocol v7's stream hash. The first
// block is published XXH64 (seed 0) vectors, so the function is the
// standard one and not a lookalike; the second pins seeded steps and a
// chain of them, which is how the wire uses it. A change that moves any
// of these moves every stamp on the wire: that is a protocol version
// bump, not a test update.
func TestChainStepKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		in   string
		want uint64
	}{
		{0, "", 0xef46db3751d8e999},
		{0, "a", 0xd24ec4f1a98c6e5b},
		{0, "as", 0x1c330fb2d66be179},
		{0, "asd", 0x631c37ce72a97393},
		{0, "asdf", 0x415872f599cea71e},
		// 63 bytes: a stripe loop, then the 8-, 4- and 1-byte tails.
		{0, "Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
		{1, "", 0xd5afba1336a3be4b},
		{0xef46db3751d8e999, "asdf", 0x58cbdf4f718e72eb},
	} {
		if got := chainStep(tc.seed, []byte(tc.in)); got != tc.want {
			t.Errorf("chainStep(%#x, %q) = %#x, want %#x", tc.seed, tc.in, got, tc.want)
		}
	}
	// A chain as the wire runs one: three frames of 100, 0 and 4097 bytes.
	data := pattern(100 + 4097)
	h := chainStep(chainSeed, data[:100])
	h = chainStep(h, nil)
	h = chainStep(h, data[100:])
	if want := uint64(0x75fe67251e63943c); h != want {
		t.Errorf("three-frame chain = %#x, want %#x", h, want)
	}
	if chainSeed != 0 {
		t.Errorf("chainSeed = %#x: a stream's first stamp is no longer plain XXH64 of its first frame", chainSeed)
	}
}

// TestChainStepMatchesReference: every length from empty through four
// stripes and every tail combination, at all eight start alignments and
// under several seeds, against the reference.
func TestChainStepMatchesReference(t *testing.T) {
	backing := pattern(130 + 8)
	for _, seed := range []uint64{0, 1, chainSeed, 0xef46db3751d8e999, ^uint64(0)} {
		for align := 0; align < 8; align++ {
			for n := 0; n <= 130; n++ {
				data := backing[align : align+n]
				if got, want := chainStep(seed, data), refChainStep(seed, data); got != want {
					t.Fatalf("seed %#x, alignment %d, length %d: chainStep = %#x, reference %#x", seed, align, n, got, want)
				}
			}
		}
	}
}

// TestChainStepSeesEveryBit: flipping any single bit of the input — in a
// stripe, in the word tail, in the last seven bytes — or any bit of the
// seed changes the value, at lengths on every side of the 4-, 8- and
// 32-byte edges.
func TestChainStepSeesEveryBit(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 31, 32, 33, 39, 40, 47, 63, 64, 71, 96, 130} {
		data := pattern(n)
		base := chainStep(chainSeed, data)
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				data[i] ^= 1 << bit
				if chainStep(chainSeed, data) == base {
					t.Fatalf("length %d: flipping bit %d of byte %d left the hash at %#x", n, bit, i, base)
				}
				data[i] ^= 1 << bit
			}
		}
		for bit := 0; bit < 64; bit++ {
			if chainStep(chainSeed^1<<bit, data) == base {
				t.Fatalf("length %d: flipping bit %d of the seed left the hash at %#x", n, bit, base)
			}
		}
	}
}

// TestChainStepFoldsLength: content that differs only in trailing zero
// bytes — the one change a sum of products cannot see — hashes
// differently, because the byte length is folded in.
func TestChainStepFoldsLength(t *testing.T) {
	for _, n := range []int{0, 1, 8, 31, 32, 64} {
		data := append(pattern(n), make([]byte, 40)...)
		seen := map[uint64]int{}
		for zeros := 0; zeros <= 40; zeros++ {
			h := chainStep(chainSeed, data[:n+zeros])
			if prev, dup := seen[h]; dup {
				t.Fatalf("%d bytes followed by %d and by %d zero bytes both hash to %#x", n, prev, zeros, h)
			}
			seen[h] = zeros
		}
	}
}

// FuzzChainStep: chainStep agrees with the reference on whatever bytes,
// seed and start alignment the engine finds.
func FuzzChainStep(f *testing.F) {
	f.Add(uint64(0), []byte(nil), uint8(0))
	f.Add(uint64(1), []byte("asdf"), uint8(3))
	f.Add(^uint64(0), pattern(130), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte, align uint8) {
		// Same bytes, moved to the alignment under test.
		shifted := append(make([]byte, align%8), data...)[align%8:]
		if !bytes.Equal(shifted, data) {
			t.Fatal("realignment changed the input")
		}
		if got, want := chainStep(seed, shifted), refChainStep(seed, data); got != want {
			t.Fatalf("chainStep(%#x, %d bytes at alignment %d) = %#x, reference %#x", seed, len(data), align%8, got, want)
		}
	})
}

// BenchmarkChainStep is the stream hash's own throughput, over a buffer
// the size of a 256-row full-spec batch frame. It runs over every payload
// byte on both sides of the wire, so this is the floor under remote
// rows/s; it is gated at 0 allocs/op.
func BenchmarkChainStep(b *testing.B) {
	data := pattern(192 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	h := chainSeed
	for b.Loop() {
		h = chainStep(h, data)
	}
	chainSink = h
}

var chainSink uint64
