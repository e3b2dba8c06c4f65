//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package tensor

import (
	"encoding/binary"
	"math"
)

// On a host whose memory order is not the wire's (or is not known to be),
// every cell is converted on its own. cells_le.go is the block-copy form
// little-endian hosts build; the two produce the same bytes.

var wireOrder = binary.LittleEndian

// appendCells appends vals' wire form to dst.
func appendCells[T cell](dst []byte, vals []T) []byte {
	switch v := any(vals).(type) {
	case []Value:
		for _, x := range v {
			dst = wireOrder.AppendUint64(dst, uint64(x))
		}
	case []int32:
		for _, x := range v {
			dst = wireOrder.AppendUint32(dst, uint32(x))
		}
	case []float32:
		for _, x := range v {
			dst = wireOrder.AppendUint32(dst, math.Float32bits(x))
		}
	}
	return dst
}

// copyCells fills out from b, its wire form.
func copyCells[T cell](out []T, b []byte) {
	switch o := any(out).(type) {
	case []Value:
		for i := range o {
			o[i] = Value(wireOrder.Uint64(b[8*i:]))
		}
	case []int32:
		for i := range o {
			o[i] = int32(wireOrder.Uint32(b[4*i:]))
		}
	case []float32:
		for i := range o {
			o[i] = math.Float32frombits(wireOrder.Uint32(b[4*i:]))
		}
	}
}

// pairCells copies a partial lookup into the flat cells it is, offset then
// length per row; cellPairs is the inverse.
func pairCells(p [][2]int32) []int32 {
	flat := make([]int32, 0, 2*len(p))
	for _, w := range p {
		flat = append(flat, w[0], w[1])
	}
	return flat
}

func cellPairs(flat []int32) [][2]int32 {
	p := make([][2]int32, len(flat)/2)
	for i := range p {
		p[i] = [2]int32{flat[2*i], flat[2*i+1]}
	}
	return p
}
