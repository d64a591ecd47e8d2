package nand

// vectorFill reports whether fill hands its body to the AVX2 kernel. It is
// decided once: the CPU must have AVX2, and the OS must save the YMM
// registers on a context switch.
var vectorFill = hasAVX2()

// xorKey sets each 8-byte word of dst to the word at the same offset of src
// XOR key. len(dst) must be a positive multiple of 128, and src at least as
// long. Implemented in fill_amd64.s.
//
//go:noescape
func xorKey(dst, src []byte, key uint64)

// cpuid and xgetbv (XCR0) are the CPU feature probes, in fill_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28 // CPUID.1:ECX; OSXSAVE makes XGETBV usable
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const ymmState = 1<<1 | 1<<2 // XCR0: SSE and AVX state
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	const avx2 = 1 << 5 // CPUID.(7,0):EBX
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
