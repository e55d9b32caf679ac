// Packed-SSE2 compensated tile kernel for the blocked (BSR) SpMM.
//
// One call sums one storage row for a tile of up to 8 fields. Lane pair
// p (fields 2p, 2p+1) keeps its running sums in X0+p and its Neumaier
// compensations in X4+p; X8 holds the broadcast operator value and
// X9–X12 are scratch. Every term goes through Knuth's branch-free TwoSum,
// which yields the same exact rounding error as the scalar kernels'
// select-form compensation (see DESIGN.md §16), so each lane's
// (sum, comp) sequence is bit-identical to the Go kernel's.

#include "textflag.h"

// PAIR folds one term into lane pair (S, C): x = v·blk[off:off+16],
// t = S+x, err = TwoSum error of S+x, C += err, S = t.
#define PAIR(off, S, C) \
	MOVUPD off(BX), X9 \
	MULPD  X8, X9 \
	MOVAPD S, X10 \
	ADDPD  X9, X10 \
	MOVAPD X10, X11 \
	SUBPD  S, X11 \
	MOVAPD X10, X12 \
	SUBPD  X11, X12 \
	SUBPD  X11, X9 \
	SUBPD  X12, S \
	ADDPD  X9, S \
	ADDPD  S, C \
	MOVAPD X10, S

// func tileRow(vals []float64, ids []int32, base, basisN int, packed []float64, nelem, pairs int, acc *[fieldBlock]float64) int
TEXT ·tileRow(SB), NOSPLIT, $0-120
	MOVQ vals_base+0(FP), SI
	MOVQ ids_base+24(FP), DI
	MOVQ ids_len+32(FP), CX
	MOVQ base+48(FP), R8
	MOVQ basisN+56(FP), R9
	MOVQ packed_base+64(FP), R10
	MOVQ nelem+88(FP), R11
	MOVQ pairs+96(FP), R12

	// DX = bytes per mode (2·pairs lanes), R13 = bytes per element block.
	MOVQ R12, DX
	SHLQ $4, DX
	MOVQ DX, R13
	IMULQ R9, R13

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JEQ   done

block:
	// Element base+ids[b], range-checked (unsigned, so negative ids fail
	// too) against the elements the packed tile holds.
	MOVLQSX (DI), AX
	ADDQ    R8, AX
	CMPQ    AX, R11
	JCC     fault
	IMULQ   R13, AX
	LEAQ    (R10)(AX*1), BX
	MOVQ    R9, AX

mode:
	MOVSD    (SI), X8
	UNPCKLPD X8, X8
	PAIR(0, X0, X4)
	CMPQ     R12, $1
	JEQ      next
	PAIR(16, X1, X5)
	CMPQ     R12, $2
	JEQ      next
	PAIR(32, X2, X6)
	CMPQ     R12, $3
	JEQ      next
	PAIR(48, X3, X7)

next:
	ADDQ $8, SI
	ADDQ DX, BX
	DECQ AX
	JNE  mode

	ADDQ $4, DI
	DECQ CX
	JNE  block

done:
	ADDPD X4, X0
	ADDPD X5, X1
	ADDPD X6, X2
	ADDPD X7, X3
	MOVQ  acc+104(FP), AX
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVQ  $-1, ret+112(FP)
	RET

fault:
	// Report the offending block's index; nothing was read through it.
	SUBQ ids_base+24(FP), DI
	SHRQ $2, DI
	MOVQ DI, ret+112(FP)
	RET
