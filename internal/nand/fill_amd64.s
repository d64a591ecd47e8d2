#include "textflag.h"

// lanes holds the word offsets 0..7 of one 64-byte group.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// The two sim.Mix64 multipliers.
DATA mix1<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL mix1<>(SB), RODATA|NOPTR, $8
DATA mix2<>+0(SB)/8, $0x94d049bb133111eb
GLOBL mix2<>(SB), RODATA|NOPTR, $8

// MIX64 turns the eight words in X into sim.Mix64 of each, using T as
// scratch. Z17 and Z18 hold the broadcast multipliers.
#define MIX64(X, T) \
	VPSRLQ  $30, X, T \
	VPXORQ  T, X, X   \
	VPMULLQ Z17, X, X \
	VPSRLQ  $27, X, T \
	VPXORQ  T, X, X   \
	VPMULLQ Z18, X, X \
	VPSRLQ  $31, X, T \
	VPXORQ  T, X, X

// func fillVector(dst []byte, key, w uint64)
//
// Word j of dst (little-endian) becomes Mix64(key ^ (w+j)); len(dst) must
// be a multiple of 64. Four 64-byte groups per step, then one per step.
TEXT ·fillVector(SB), NOSPLIT|NOFRAME, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VPBROADCASTQ key+24(FP), Z16
	VPBROADCASTQ w+32(FP), Z0
	VPADDQ       lanes<>(SB), Z0, Z0
	VPBROADCASTQ mix1<>(SB), Z17
	VPBROADCASTQ mix2<>(SB), Z18
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z20
	VPSLLQ       $2, Z20, Z19

	// Z0..Z3 count the words of the next four groups; Z19 = 32, Z20 = 8.
	VPADDQ Z20, Z0, Z1
	VPADDQ Z20, Z1, Z2
	VPADDQ Z20, Z2, Z3
	CMPQ   CX, $256
	JB     single

quad:
	VPXORQ Z16, Z0, Z4
	VPXORQ Z16, Z1, Z5
	VPXORQ Z16, Z2, Z6
	VPXORQ Z16, Z3, Z7
	MIX64(Z4, Z8)
	MIX64(Z5, Z9)
	MIX64(Z6, Z10)
	MIX64(Z7, Z11)
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)
	VPADDQ    Z19, Z0, Z0
	VPADDQ    Z19, Z1, Z1
	VPADDQ    Z19, Z2, Z2
	VPADDQ    Z19, Z3, Z3
	ADDQ      $256, DI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JAE       quad

single:
	CMPQ CX, $64
	JB   done

one:
	VPXORQ    Z16, Z0, Z4
	MIX64(Z4, Z8)
	VMOVDQU64 Z4, (DI)
	VPADDQ    Z20, Z0, Z0
	ADDQ      $64, DI
	SUBQ      $64, CX
	CMPQ      CX, $64
	JAE       one

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT|NOFRAME, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT|NOFRAME, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
