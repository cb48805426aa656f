#include "textflag.h"

// AXIS adds axis k's term to the lanes' bounds in Z2: g = q[k] − p, Z2 +=
// g·g, the product rounded before the add (VMULPD, then VADDPD).
#define AXIS(k) \
	VBROADCASTSD (k*8)(BX), Z0 \
	VSUBPD       (k*64)(AX), Z0, Z1 \
	VMULPD       Z1, Z1, Z1 \
	VADDPD       Z1, Z2, Z2

// func boundsAVX512(blk *[32]float64, q *[4]float64, cut float64) (end, keep uint8)
//
// Lane r holds row r of the block: g₀ = q[0] − blk[r], b = g₀·g₀, end bit r
// = b > cut (GT_OQ: false for NaN); then b += gₖ·gₖ for axes 1-3 in order,
// and keep bit r = !(b > cut) (NGT_UQ: true for NaN).
TEXT ·boundsAVX512(SB), NOSPLIT, $0-26
	MOVQ         blk+0(FP), AX
	MOVQ         q+8(FP), BX
	VBROADCASTSD cut+16(FP), Z7

	VBROADCASTSD 0(BX), Z0
	VSUBPD       0(AX), Z0, Z1
	VMULPD       Z1, Z1, Z2
	VCMPPD       $0x1e, Z7, Z2, K1
	AXIS(1)
	AXIS(2)
	AXIS(3)
	VCMPPD       $0x1a, Z7, Z2, K2

	KMOVW K1, CX
	MOVB  CX, end+24(FP)
	KMOVW K2, CX
	MOVB  CX, keep+25(FP)
	VZEROUPPER
	RET

// func filterAVX512(z, t []float64) float64
//
// Eight lane sums of (z[j] − t[j])² over j ≡ lane mod 8, each term rounded
// before its add; a masked load covers the last len(z) mod 8 values
// (masked-off lanes read nothing and add +0). The lanes are then added
// pairwise: 8 → 4 → 2 → 1.
TEXT ·filterAVX512(SB), NOSPLIT, $0-56
	MOVQ   z_base+0(FP), AX
	MOVQ   z_len+8(FP), CX
	MOVQ   t_base+24(FP), BX
	VXORPD X0, X0, X0 // zeroes all of Z0

loop:
	CMPQ    CX, $8
	JLT     tail
	VMOVUPD 0(AX), Z1
	VSUBPD  0(BX), Z1, Z1
	VMULPD  Z1, Z1, Z1
	VADDPD  Z1, Z0, Z0
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $8, CX
	JMP     loop

tail:
	TESTQ     CX, CX
	JZ        reduce
	MOVL      $1, DX
	SHLL      CX, DX
	DECL      DX
	KMOVW     DX, K1
	VMOVUPD.Z 0(AX), K1, Z1
	VMOVUPD.Z 0(BX), K1, Z2
	VSUBPD    Z2, Z1, Z1
	VMULPD    Z1, Z1, Z1
	VADDPD    Z1, Z0, Z0

reduce:
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VADDPD        X1, X0, X0
	VUNPCKHPD     X0, X0, X1
	VADDSD        X1, X0, X0
	MOVSD         X0, ret+48(FP)
	VZEROUPPER
	RET
