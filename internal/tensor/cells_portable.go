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
	case [][2]int32:
		for _, x := range v {
			dst = wireOrder.AppendUint32(wireOrder.AppendUint32(dst, uint32(x[0])), uint32(x[1]))
		}
	}
	return dst
}

// decodeCells returns the cells whose wire form is b, in fresh memory.
func decodeCells[T cell](b []byte) []T {
	out := make([]T, len(b)/cellBytes[T]())
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
	case [][2]int32:
		for i := range o {
			o[i] = [2]int32{int32(wireOrder.Uint32(b[8*i:])), int32(wireOrder.Uint32(b[8*i+4:]))}
		}
	}
	return out
}
