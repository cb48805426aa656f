#include "textflag.h"

// PAIRS forms eight sums' new values in Z10 from the sums in Z10: lane l
// takes sensors a and b from the pair table at DX (VPERMPD out of the
// evicted values in Z0 and the new ones in Z1), then Z10 = (Z10 − oₐ·o_b) +
// zₐ·z_b, each product rounded before the subtract and the add.
#define PAIRS \
	VMOVDQU64 0(DX), Z4 \
	VMOVDQU64 64(DX), Z5 \
	VPERMPD   Z0, Z4, Z6 \
	VPERMPD   Z0, Z5, Z7 \
	VPERMPD   Z1, Z4, Z8 \
	VPERMPD   Z1, Z5, Z9 \
	VMULPD    Z7, Z6, Z6 \
	VMULPD    Z9, Z8, Z8 \
	VSUBPD    Z6, Z10, Z10 \
	VADDPD    Z8, Z10, Z10

// func pushAVX512(sums, slot, sample, means, stds []float64, pairs *[5][2][8]int64)
//
// K1 covers the len(sample) sensor lanes: the evicted slot, the sample and
// its means and stds load under it (masked-off lanes read nothing), z =
// (v − mean) / std is formed in its lanes and stored into the slot. The
// sums then take len(sums)/8 full steps and a masked step for the last
// len(sums) mod 8.
TEXT ·pushAVX512(SB), NOSPLIT, $0-128
	MOVQ sample_len+56(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1

	MOVQ      slot_base+24(FP), SI
	MOVQ      sample_base+48(FP), AX
	MOVQ      means_base+72(FP), BX
	MOVQ      stds_base+96(FP), R8
	VMOVUPD.Z 0(SI), K1, Z0
	VMOVUPD.Z 0(AX), K1, Z1
	VMOVUPD.Z 0(BX), K1, Z2
	VMOVUPD.Z 0(R8), K1, Z3
	VSUBPD.Z  Z2, Z1, K1, Z1
	VDIVPD.Z  Z3, Z1, K1, Z1
	VMOVUPD   Z1, K1, 0(SI)

	MOVQ sums_base+0(FP), DI
	MOVQ sums_len+8(FP), CX
	MOVQ pairs+120(FP), DX

loop:
	CMPQ    CX, $8
	JLT     tail
	VMOVUPD 0(DI), Z10
	PAIRS
	VMOVUPD Z10, 0(DI)
	ADDQ    $64, DI
	ADDQ    $128, DX
	SUBQ    $8, CX
	JMP     loop

tail:
	TESTQ     CX, CX
	JZ        done
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K2
	VMOVUPD.Z 0(DI), K2, Z10
	PAIRS
	VMOVUPD   Z10, K2, 0(DI)

done:
	VZEROUPPER
	RET
