// AVX2 microkernels. Every kernel but one uses separate VMULPD/VADDPD
// (never VFMADD): fused multiply-add rounds once where the scalar
// reference rounds twice, and the order-preserving kernels (axpy, mulacc,
// scaledmulacc, the matmul row) are pinned bit-exact against the
// reference, so FMA contraction is off the table by design. The exception is eluAsm: its
// reference is math.Exp, whose amd64 assembly itself uses VFNMADD231SD
// and VFMADD213SD whenever the CPU has FMA. eluAsm fuses exactly the
// operations math.Exp fuses, no others, and runs only on such CPUs, so
// it rounds where the reference rounds. The reductions (dot, sum) run 8
// lanes of partial sums — accumulator lane l holds the elements with
// index ≡ l (mod 8) — and reduce lane l with lane l+4, then lanes
// pairwise: the order every backend sums in at float64, written out in
// Go as dotLanes and sumLanes. The matmul row kernel walks all the
// p-quads of one output row in one call, so a small row pays one call
// instead of one per four p-steps; it exits early at the first quad
// holding a zero a-element, because the reference skips zero terms
// (0·Inf would be NaN) and the Go caller runs that quad p by p. Tails are
// scalar VEX ops, and every exit runs VZEROUPPER before RET.

#include "textflag.h"

// func dotAsm(x, y []float64) float64
TEXT ·dotAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   dotreduce

dotloop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMULPD (DI), Y2, Y2
	VMULPD 32(DI), Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  dotloop

dotreduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $7, CX
	JZ   dotdone

dottail:
	VMOVSD (SI), X2
	VMULSD (DI), X2, X2
	VADDSD X2, X0, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dottail

dotdone:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func sumAsm(x []float64) float64
TEXT ·sumAsm(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   sumreduce

sumloop:
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	ADDQ $64, SI
	DECQ BX
	JNZ  sumloop

sumreduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $7, CX
	JZ   sumdone

sumtail:
	VADDSD (SI), X0, X0
	ADDQ $8, SI
	DECQ CX
	JNZ  sumtail

sumdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpyAsm(alpha float64, x, y []float64)
// y[i] += alpha·x[i]; multiply then add, bit-exact vs the reference.
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpytailcnt

axpyloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  axpyloop

axpytailcnt:
	ANDQ $7, CX
	JZ   axpydone

axpytail:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpytail

axpydone:
	VZEROUPPER
	RET

// func mulaccAsm(x, y, dst []float64)
// dst[i] += x[i]·y[i]; multiply then add, bit-exact vs the reference.
TEXT ·mulaccAsm(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DX
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   mulacctailcnt

mulaccloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD (DX), Y1, Y1
	VMULPD 32(DX), Y2, Y2
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ BX
	JNZ  mulaccloop

mulacctailcnt:
	ANDQ $7, CX
	JZ   mulaccdone

mulacctail:
	VMOVSD (SI), X1
	VMULSD (DX), X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, DI
	DECQ CX
	JNZ  mulacctail

mulaccdone:
	VZEROUPPER
	RET

// func scaledMulaccAsm(alpha float64, x, y, dst []float64)
// dst[i] += (alpha·x[i])·y[i] with exactly that rounding order.
TEXT ·scaledMulaccAsm(SB), NOSPLIT, $0-80
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DX
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   smatailcnt

smaloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMULPD (DX), Y1, Y1
	VMULPD 32(DX), Y2, Y2
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ BX
	JNZ  smaloop

smatailcnt:
	ANDQ $7, CX
	JZ   smadone

smatail:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMULSD (DX), X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, DI
	DECQ CX
	JNZ  smatail

smadone:
	VZEROUPPER
	RET

// func matmulRowAsm(a, b, out []float64, k, stride int) int
// The p-loop of one matmul output row, four ascending p-steps per pass:
// out[j] += a0·b[j], then += a1·b[n+j], += a2·b[2n+j], += a3·b[3n+j],
// where a0..a3 are a[0], a[stride], a[2·stride], a[3·stride] and b holds
// the B rows contiguously (stride n = len(out)). Each multiply and add
// rounds separately in that order (no FMA) — the exact rounding sequence
// of four consecutive scalar p-iterations, so the kernel is bit-exact vs
// the reference. It walks up to k p-steps and returns how many it did: it
// stops before the first quad holding a zero a-element (the reference
// skips those; the caller runs that quad per p-step) and when fewer than
// four steps are left. The zero test is EQ_OQ, so a NaN counts as
// nonzero, as Go's != 0 does.
TEXT ·matmulRowAsm(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), CX
	MOVQ k+72(FP), BX
	MOVQ stride+80(FP), R11
	SHLQ $3, CX            // row length in bytes
	SHLQ $3, R11           // a stride in bytes
	MOVQ CX, R13
	ANDQ $-64, R13         // bytes in whole 8-blocks
	VXORPD Y15, Y15, Y15

rowquad:
	CMPQ BX, $4
	JLT  rowdone
	LEAQ (SI)(R11*2), R9   // &a2
	VMOVSD  (SI), X4
	VMOVHPD (SI)(R11*1), X4, X4
	VMOVSD  (R9), X5
	VMOVHPD (R9)(R11*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VCMPPD  $0, Y15, Y4, Y5 // EQ_OQ: which of a0..a3 are ±0
	VMOVMSKPD Y5, R8
	TESTL   R8, R8
	JNZ     rowdone
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (SI)(R11*1), Y1
	VBROADCASTSD (R9), Y2
	VBROADCASTSD (R9)(R11*1), Y3
	LEAQ (DX)(CX*1), R9    // row p+1
	LEAQ (R9)(CX*1), R10   // row p+2
	LEAQ (R10)(CX*1), R12  // row p+3
	XORQ R8, R8            // byte offset into the row
	CMPQ R8, R13
	JGE  rowtailcnt

rowblock:
	VMOVUPD (DI)(R8*1), Y4
	VMOVUPD 32(DI)(R8*1), Y5
	VMOVUPD (DX)(R8*1), Y6
	VMOVUPD 32(DX)(R8*1), Y7
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R9)(R8*1), Y6
	VMOVUPD 32(R9)(R8*1), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R10)(R8*1), Y6
	VMOVUPD 32(R10)(R8*1), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R12)(R8*1), Y6
	VMOVUPD 32(R12)(R8*1), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(R8*1)
	VMOVUPD Y5, 32(DI)(R8*1)
	ADDQ $64, R8
	CMPQ R8, R13
	JLT  rowblock

rowtailcnt:
	CMPQ R8, CX
	JGE  rownext

rowtail:
	VMOVSD (DI)(R8*1), X4
	VMOVSD (DX)(R8*1), X6
	VMULSD X0, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R9)(R8*1), X6
	VMULSD X1, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R10)(R8*1), X6
	VMULSD X2, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R12)(R8*1), X6
	VMULSD X3, X6, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(R8*1)
	ADDQ $8, R8
	CMPQ R8, CX
	JLT  rowtail

rownext:
	LEAQ (R12)(CX*1), DX   // row p+4
	LEAQ (SI)(R11*4), SI   // &a[p+4]
	SUBQ $4, BX
	JMP  rowquad

rowdone:
	MOVQ k+72(FP), AX
	SUBQ BX, AX
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

// The ELU table: math's exp constants (exp_amd64.s, digit for digit),
// each broadcast across a 32-byte row so every vector op can take its
// constant straight from memory, then eluAsm's NaN/underflow floor and
// four int32 exponent biases.
#define ROW(off, v) DATA elutab<>+(off)(SB)/8, v; DATA elutab<>+(off+8)(SB)/8, v; DATA elutab<>+(off+16)(SB)/8, v; DATA elutab<>+(off+24)(SB)/8, v

ROW(0, $1.4426950408889634073599246810018920)            // LOG2E
ROW(32, $0.69314718055966295651160180568695068359375)    // LN2U
ROW(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
ROW(96, $0.0625)
ROW(128, $2.4801587301587301587e-5)
ROW(160, $1.9841269841269841270e-4)
ROW(192, $1.3888888888888888889e-3)
ROW(224, $8.3333333333333333333e-3)
ROW(256, $4.1666666666666666667e-2)
ROW(288, $1.6666666666666666667e-1)
ROW(320, $0.5)
ROW(352, $1.0)
ROW(384, $2.0)
ROW(416, $-708.0)
DATA elutab<>+448(SB)/4, $0x3FF
DATA elutab<>+452(SB)/4, $0x3FF
DATA elutab<>+456(SB)/4, $0x3FF
DATA elutab<>+460(SB)/4, $0x3FF
GLOBL elutab<>(SB), RODATA|NOPTR, $464

// func eluAsm(x, dst []float64) int
// ELU over whole 8-element blocks of dst (two 4-lane blocks per pass),
// from the start, stopping before the first block that holds a NaN or a
// lane below −708; returns the elements done. Each non-positive lane is
// math.Exp's avxfma branch (exp_amd64.s) op for op — the same roundings
// on the same operands in the same order, so the same bits — then
// exp − 1 as Go's subtract rounds it; lanes with x > 0 are blended back
// as x. A block the kernel declines is where archExp leaves that branch:
// at x < −708.39… its k + 0x3FF reaches 0 and the result goes denormal,
// and NaN returns x. The caller finishes such blocks, and the tail, with
// the scalar loop. TestAVX2ELUIsMathExp pins the kernel against the
// toolchain's math.Exp, so a Go release that changes exp_amd64.s shows
// there first.
TEXT ·eluAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ dst_base+24(FP), DI
	MOVQ dst_len+32(FP), CX
	XORQ AX, AX
	SHRQ $3, CX
	JZ   eludone
	VXORPD Y15, Y15, Y15

eluloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y8
	VCMPPD  $0x19, elutab<>+416(SB), Y0, Y1 // !(x ≥ −708): below the floor or NaN
	VCMPPD  $0x19, elutab<>+416(SB), Y8, Y9
	VORPD   Y9, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL   DX, DX
	JNZ     eludone

	VMULPD  elutab<>+0(SB), Y0, Y1 // x·log2(e)
	VMULPD  elutab<>+0(SB), Y8, Y9
	VCVTPD2DQY Y1, X2              // k, rounded to nearest even
	VCVTPD2DQY Y9, X10
	VCVTDQ2PD X2, Y1
	VCVTDQ2PD X10, Y9
	VMOVAPD Y0, Y3
	VMOVAPD Y8, Y11
	VFNMADD231PD elutab<>+32(SB), Y1, Y3 // r = x − k·LN2U − k·LN2L
	VFNMADD231PD elutab<>+32(SB), Y9, Y11
	VFNMADD231PD elutab<>+64(SB), Y1, Y3
	VFNMADD231PD elutab<>+64(SB), Y9, Y11
	VMULPD  elutab<>+96(SB), Y3, Y3 // r/16
	VMULPD  elutab<>+96(SB), Y11, Y11

	VMOVUPD elutab<>+128(SB), Y4 // Taylor chain p = p·r + c
	VMOVUPD elutab<>+128(SB), Y12
	VFMADD213PD elutab<>+160(SB), Y3, Y4
	VFMADD213PD elutab<>+160(SB), Y11, Y12
	VFMADD213PD elutab<>+192(SB), Y3, Y4
	VFMADD213PD elutab<>+192(SB), Y11, Y12
	VFMADD213PD elutab<>+224(SB), Y3, Y4
	VFMADD213PD elutab<>+224(SB), Y11, Y12
	VFMADD213PD elutab<>+256(SB), Y3, Y4
	VFMADD213PD elutab<>+256(SB), Y11, Y12
	VFMADD213PD elutab<>+288(SB), Y3, Y4
	VFMADD213PD elutab<>+288(SB), Y11, Y12
	VFMADD213PD elutab<>+320(SB), Y3, Y4
	VFMADD213PD elutab<>+320(SB), Y11, Y12
	VFMADD213PD elutab<>+352(SB), Y3, Y4
	VFMADD213PD elutab<>+352(SB), Y11, Y12
	VMULPD  Y4, Y3, Y3 // e = exp(r/16) − 1
	VMULPD  Y12, Y11, Y11

	VADDPD  elutab<>+384(SB), Y3, Y4 // e = e·(e + 2), four squarings of 1 + e
	VADDPD  elutab<>+384(SB), Y11, Y12
	VMULPD  Y4, Y3, Y3
	VMULPD  Y12, Y11, Y11
	VADDPD  elutab<>+384(SB), Y3, Y4
	VADDPD  elutab<>+384(SB), Y11, Y12
	VMULPD  Y4, Y3, Y3
	VMULPD  Y12, Y11, Y11
	VADDPD  elutab<>+384(SB), Y3, Y4
	VADDPD  elutab<>+384(SB), Y11, Y12
	VMULPD  Y4, Y3, Y3
	VMULPD  Y12, Y11, Y11
	VADDPD  elutab<>+384(SB), Y3, Y4
	VADDPD  elutab<>+384(SB), Y11, Y12
	VFMADD213PD elutab<>+352(SB), Y4, Y3 // the last one fused with the + 1
	VFMADD213PD elutab<>+352(SB), Y12, Y11

	VPADDD  elutab<>+448(SB), X2, X2 // 2^k: (k + 0x3FF) << 52
	VPADDD  elutab<>+448(SB), X10, X10
	VPMOVZXDQ X2, Y2
	VPMOVZXDQ X10, Y10
	VPSLLQ  $52, Y2, Y2
	VPSLLQ  $52, Y10, Y10
	VMULPD  Y2, Y3, Y3
	VMULPD  Y10, Y11, Y11
	VSUBPD  elutab<>+352(SB), Y3, Y3 // exp(x) − 1
	VSUBPD  elutab<>+352(SB), Y11, Y11

	VCMPPD  $0x1E, Y15, Y0, Y5 // x > 0 keeps x
	VCMPPD  $0x1E, Y15, Y8, Y13
	VBLENDVPD Y5, Y0, Y3, Y3
	VBLENDVPD Y13, Y8, Y11, Y11
	VMOVUPD Y3, (DI)
	VMOVUPD Y11, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $8, AX
	DECQ CX
	JNZ  eluloop

eludone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
