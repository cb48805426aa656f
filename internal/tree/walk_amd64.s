#include "textflag.h"

// STEP advances one set of eight lanes one level under its opmask active,
// and jumps to the label next when active is empty: ids and fts are the
// set's node ids and their feat words, v, t and k scratch. Gathers clear
// the mask they are handed, so each takes a fresh copy of active.
//
//	v, t, k = row[ft], thr[id], kids[id]
//	left    = active & (v <= t)        LE_OQ: NaN compares false, goes right
//	id      = kids          (active)
//	id     += 1             (active & !left)
//	ft      = feat[id]      (active)
//	active &= ft >= 0                  a lane leaves at its leaf
#define STEP(active, ids, fts, v, t, k, next) \
	KORTESTW   active, active \
	JZ         next \
	KMOVW      active, K5 \
	VGATHERDPD (DX)(fts*8), K5, v \
	KMOVW      active, K6 \
	VGATHERDPD (BX)(ids*8), K6, t \
	KMOVW      active, K7 \
	VPGATHERDD (CX)(ids*4), K7, k \
	VCMPPD     $0x12, t, v, active, K5 \
	KANDNW     active, K5, K6 \
	VMOVDQA32  k, active, ids \
	VPADDD     Y20, ids, K6, ids \
	KMOVW      active, K7 \
	VPGATHERDD (AX)(ids*4), K7, fts \
	VPCMPD     $5, Y21, fts, active, active \
next:

// func walk32(feat *int32, thr *float64, kids *int32, row *float64, roots *int32, ids, fts *[32]int32)
//
// Walks row through the 32 trees whose roots are roots[0:32], as four sets
// of eight lanes (ids in Y0-Y3, feat words in Y4-Y7, opmasks K1-K4), and
// stores each tree's leaf id in ids and the leaf's feat word in fts. A set
// whose lanes have all reached a leaf skips its gathers. The caller
// guarantees every node id is in range and every split feature indexes
// row. Z15 is left alone; set 4's thresholds use Z22.
TEXT ·walk32(SB), NOSPLIT, $0-56
	MOVQ feat+0(FP), AX
	MOVQ thr+8(FP), BX
	MOVQ kids+16(FP), CX
	MOVQ row+24(FP), DX
	MOVQ roots+32(FP), SI
	MOVQ ids+40(FP), DI
	MOVQ fts+48(FP), R8

	MOVL         $1, R9
	VPBROADCASTD R9, Y20
	VPXORD       Y21, Y21, Y21

	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3

	KXNORW     K5, K5, K5
	VPGATHERDD (AX)(Y0*4), K5, Y4
	KXNORW     K5, K5, K5
	VPGATHERDD (AX)(Y1*4), K5, Y5
	KXNORW     K5, K5, K5
	VPGATHERDD (AX)(Y2*4), K5, Y6
	KXNORW     K5, K5, K5
	VPGATHERDD (AX)(Y3*4), K5, Y7
	VPCMPD     $5, Y21, Y4, K1
	VPCMPD     $5, Y21, Y5, K2
	VPCMPD     $5, Y21, Y6, K3
	VPCMPD     $5, Y21, Y7, K4

loop:
	KORW     K1, K2, K5
	KORW     K3, K4, K6
	KORTESTW K5, K6
	JZ       done
	STEP(K1, Y0, Y4, Z8, Z12, Y16, set2)
	STEP(K2, Y1, Y5, Z9, Z13, Y17, set3)
	STEP(K3, Y2, Y6, Z10, Z14, Y18, set4)
	STEP(K4, Y3, Y7, Z11, Z22, Y19, next)
	JMP      loop

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 0(R8)
	VMOVDQU Y5, 32(R8)
	VMOVDQU Y6, 64(R8)
	VMOVDQU Y7, 96(R8)
	VZEROUPPER
	RET
