//go:build !amd64

package nand

// vectorFill is false off amd64: fill runs its Go loop only.
const vectorFill = false

func xorKey(dst, src []byte, key uint64) {
	panic("nand: no vector fill kernel on this architecture")
}
