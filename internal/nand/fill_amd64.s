#include "textflag.h"

// func xorKey(dst, src []byte, key uint64)
//
// Each 8-byte word of dst becomes the word at the same offset of src XOR
// key; len(dst) must be a positive multiple of 128. 128 bytes per step.
TEXT ·xorKey(SB), NOSPLIT|NOFRAME, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VPBROADCASTQ key+48(FP), Y0

loop:
	VPXOR   (SI), Y0, Y1
	VPXOR   32(SI), Y0, Y2
	VPXOR   64(SI), Y0, Y3
	VPXOR   96(SI), Y0, Y4
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, 32(DI)
	VMOVDQU Y3, 64(DI)
	VMOVDQU Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $128, CX
	JNZ     loop
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
