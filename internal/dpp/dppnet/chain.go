package dppnet

import (
	"encoding/binary"
	"math/bits"
)

// The rolling stream hash chains XXH64: the chain starts at chainSeed and
// each frame hashes its canonical content bytes with the previous chain
// value as the seed. Server and client compute it independently per
// frame, and the server stamps its value on the frame — so one 8-byte
// comparison per frame verifies the whole prefix, and a resumed stream
// that diverges anywhere is caught at the first divergent frame.
//
// It is a divergence detector, not a MAC: anyone who can rewrite a frame
// can restamp it. What it has to be is fast enough to run over every
// payload byte on both sides (four independent multiply-rotate lanes, 32
// bytes a round), wide enough that a chain which collided once does not
// stay collided for the rest of the stream by accident of a small state
// (64 bits, all of them carried into the next frame), and a fixed function
// of the bytes on every platform (loads go through binary.LittleEndian).
// The byte length is folded in, so content that differs only in trailing
// zero bytes hashes differently.
const chainSeed = uint64(0)

const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

func xxRound(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, v uint64) uint64 {
	return (h^xxRound(0, v))*xxPrime1 + xxPrime4
}

// chainStep folds data into the chain value h: XXH64 of data seeded
// with h. Changing it changes every stamp on the wire, which is a
// protocol version bump; TestChainStepKnownAnswers pins the values.
func chainStep(h uint64, data []byte) uint64 {
	n := uint64(len(data))
	if len(data) >= 32 {
		v1, v2, v3, v4 := h+xxPrime1+xxPrime2, h+xxPrime2, h, h-xxPrime1
		// Two 32-byte stripes a turn: a lane's next round waits only on its
		// add-rotate-multiply, so the loop's own bookkeeping is what halving
		// the turns saves (~13 → ~15 GB/s on the baseline container).
		for len(data) >= 64 {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(data[0:8:len(data)]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(data[8:16:len(data)]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(data[16:24:len(data)]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(data[24:32:len(data)]))
			v1 = xxRound(v1, binary.LittleEndian.Uint64(data[32:40:len(data)]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(data[40:48:len(data)]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(data[48:56:len(data)]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(data[56:64:len(data)]))
			data = data[64:len(data):len(data)]
		}
		if len(data) >= 32 {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(data[0:8:len(data)]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(data[8:16:len(data)]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(data[16:24:len(data)]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(data[24:32:len(data)]))
			data = data[32:len(data):len(data)]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(xxMerge(xxMerge(xxMerge(h, v1), v2), v3), v4)
	} else {
		h += xxPrime5
	}
	h += n
	for ; len(data) >= 8; data = data[8:] {
		h = bits.RotateLeft64(h^xxRound(0, binary.LittleEndian.Uint64(data)), 27)*xxPrime1 + xxPrime4
	}
	if len(data) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(data))*xxPrime1, 23)*xxPrime2 + xxPrime3
		data = data[4:]
	}
	for _, b := range data {
		h = bits.RotateLeft64(h^uint64(b)*xxPrime5, 11) * xxPrime1
	}
	h = (h ^ h>>33) * xxPrime2
	h = (h ^ h>>29) * xxPrime3
	return h ^ h>>32
}
