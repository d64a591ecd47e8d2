package nand

// vectorFill reports whether fill hands its aligned body to the AVX-512
// kernel. It is decided once: the CPU must have AVX512F (eight-lane
// arithmetic) and AVX512DQ (VPMULLQ, the 64-bit low multiply), and the OS
// must save the opmask and ZMM registers on a context switch.
var vectorFill = hasAVX512()

// fillVector writes pattern words w, w+1, ... of the page keyed by key into
// dst, whose length must be a multiple of 64: word j of dst is
// sim.Mix64(key ^ (w+j)), little-endian. Implemented in fill_amd64.s.
//
//go:noescape
func fillVector(dst []byte, key, w uint64)

// cpuid and xgetbv (XCR0) are the CPU feature probes, in fill_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // CPUID.1:ECX, XGETBV is usable
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: SSE and AVX state (bits 1-2), opmask and both ZMM halves (5-7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17 // CPUID.(7,0):EBX
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512dq != 0
}
