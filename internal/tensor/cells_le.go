//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package tensor

import "unsafe"

// On a little-endian host a block of cells already has its wire layout in
// memory, so a block crosses the codec as one copy each way. This is the
// only file in the module that imports unsafe; cells_portable.go is the
// per-element form every other host builds.

// cellBytesOf views vals' memory as bytes. An empty vals is an empty view:
// no element is ever addressed.
func cellBytesOf[T cell](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*cellBytes[T]())
}

// appendCells appends vals' wire form to dst.
func appendCells[T cell](dst []byte, vals []T) []byte {
	return append(dst, cellBytesOf(vals)...)
}

// copyCells fills out from b, its wire form.
func copyCells[T cell](out []T, b []byte) {
	copy(cellBytesOf(out), b)
}

// pairCells views a partial lookup as the flat cells it is in memory,
// offset then length per row; cellPairs is the inverse view.
func pairCells(p [][2]int32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(p))), 2*len(p))
}

func cellPairs(flat []int32) [][2]int32 {
	return unsafe.Slice((*[2]int32)(unsafe.Pointer(unsafe.SliceData(flat))), len(flat)/2)
}
