// AVX2 microkernels. Every kernel uses separate VMULPD/VADDPD (never
// VFMADD) except inside EXP8: fused multiply-add rounds once where the
// scalar reference rounds twice, and the order-preserving kernels (axpy,
// mulacc, scaledmulacc, the matmul row) are pinned bit-exact against the
// reference, so FMA contraction is off the table by design. EXP8, the
// exp of eluAsm and geluAsm, has math.Exp as its reference, whose amd64
// assembly itself uses VFNMADD231SD and VFMADD213SD whenever the CPU has
// FMA. EXP8 fuses exactly the operations math.Exp fuses, no others, and
// runs only on such CPUs, so it rounds where the reference rounds. The
// reductions (dot, sum) run 8 lanes of partial sums — accumulator lane l
// holds the elements with index ≡ l (mod 8) — and reduce lane l with
// lane l+4, then lanes
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

// The exp table: math's exp constants (exp_amd64.s, digit for digit),
// each broadcast across a 32-byte row so every vector op can take its
// constant straight from memory; eluAsm's NaN/underflow floor; geluAsm's
// constants (the cubic's, √(2/π), the |x| and Inf masks, MAXLOG, tanh's
// branch point 0.625, and tanh.go's tanhP and tanhQ, digit for digit);
// then four int32 exponent biases.
#define ROW(off, v) DATA exptab<>+(off)(SB)/8, v; DATA exptab<>+(off+8)(SB)/8, v; DATA exptab<>+(off+16)(SB)/8, v; DATA exptab<>+(off+24)(SB)/8, v

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
ROW(448, $0.044715)
ROW(480, $0.7978845608028654)                            // √(2/π)
ROW(512, $0x7FFFFFFFFFFFFFFF)                            // |x|
ROW(544, $0x7FF0000000000000)                            // +Inf
ROW(576, $8.8029691931113054295988e+01)                  // MAXLOG
ROW(608, $0.625)
ROW(640, $-9.64399179425052238628e-1)                    // tanhP
ROW(672, $-9.92877231001918586564e1)
ROW(704, $-1.61468768441708447952e3)
ROW(736, $1.12811678491632931402e2)                      // tanhQ
ROW(768, $2.23548839060100448583e3)
ROW(800, $4.84406305325125486048e3)
DATA exptab<>+832(SB)/4, $0x3FF
DATA exptab<>+836(SB)/4, $0x3FF
DATA exptab<>+840(SB)/4, $0x3FF
DATA exptab<>+844(SB)/4, $0x3FF
GLOBL exptab<>(SB), RODATA|NOPTR, $848

// EXP8 overwrites the four lanes of w and the four of v with their
// math.Exp, the two chains interleaved op by op. Each lane runs
// math.Exp's avxfma branch (exp_amd64.s) op for op — the same roundings
// on the same operands in the same order, so the same bits: k =
// round(w·log2(e)), r = (w − k·LN2U − k·LN2L)/16, the Taylor chain
// p = p·r + c, e = r·p, four squarings e = e·(e + 2), the last fused
// with the + 1, then times 2^k built as (k + 0x3FF) << 52. It is valid
// where archExp takes that branch and stays there: −708.39… < w <
// 709.78…, NaN excluded. kf, then the chain, uses the scratch register
// kf; kix and kiy are one scratch register's X and Y names; kg, kjx and
// kjy are v's.
#define EXP8(w, kf, kix, kiy, v, kg, kjx, kjy) \
	VMULPD  exptab<>+0(SB), w, kf; \
	VMULPD  exptab<>+0(SB), v, kg; \
	VCVTPD2DQY kf, kix; \
	VCVTPD2DQY kg, kjx; \
	VCVTDQ2PD kix, kf; \
	VCVTDQ2PD kjx, kg; \
	VFNMADD231PD exptab<>+32(SB), kf, w; \
	VFNMADD231PD exptab<>+32(SB), kg, v; \
	VFNMADD231PD exptab<>+64(SB), kf, w; \
	VFNMADD231PD exptab<>+64(SB), kg, v; \
	VMULPD  exptab<>+96(SB), w, w; \
	VMULPD  exptab<>+96(SB), v, v; \
	VMOVUPD exptab<>+128(SB), kf; \
	VMOVUPD exptab<>+128(SB), kg; \
	VFMADD213PD exptab<>+160(SB), w, kf; \
	VFMADD213PD exptab<>+160(SB), v, kg; \
	VFMADD213PD exptab<>+192(SB), w, kf; \
	VFMADD213PD exptab<>+192(SB), v, kg; \
	VFMADD213PD exptab<>+224(SB), w, kf; \
	VFMADD213PD exptab<>+224(SB), v, kg; \
	VFMADD213PD exptab<>+256(SB), w, kf; \
	VFMADD213PD exptab<>+256(SB), v, kg; \
	VFMADD213PD exptab<>+288(SB), w, kf; \
	VFMADD213PD exptab<>+288(SB), v, kg; \
	VFMADD213PD exptab<>+320(SB), w, kf; \
	VFMADD213PD exptab<>+320(SB), v, kg; \
	VFMADD213PD exptab<>+352(SB), w, kf; \
	VFMADD213PD exptab<>+352(SB), v, kg; \
	VMULPD  kf, w, w; \
	VMULPD  kg, v, v; \
	VADDPD  exptab<>+384(SB), w, kf; \
	VADDPD  exptab<>+384(SB), v, kg; \
	VMULPD  kf, w, w; \
	VMULPD  kg, v, v; \
	VADDPD  exptab<>+384(SB), w, kf; \
	VADDPD  exptab<>+384(SB), v, kg; \
	VMULPD  kf, w, w; \
	VMULPD  kg, v, v; \
	VADDPD  exptab<>+384(SB), w, kf; \
	VADDPD  exptab<>+384(SB), v, kg; \
	VMULPD  kf, w, w; \
	VMULPD  kg, v, v; \
	VADDPD  exptab<>+384(SB), w, kf; \
	VADDPD  exptab<>+384(SB), v, kg; \
	VFMADD213PD exptab<>+352(SB), kf, w; \
	VFMADD213PD exptab<>+352(SB), kg, v; \
	VPADDD  exptab<>+832(SB), kix, kix; \
	VPADDD  exptab<>+832(SB), kjx, kjx; \
	VPMOVZXDQ kix, kiy; \
	VPMOVZXDQ kjx, kjy; \
	VPSLLQ  $52, kiy, kiy; \
	VPSLLQ  $52, kjy, kjy; \
	VMULPD  kiy, w, w; \
	VMULPD  kjy, v, v

// func eluAsm(x, dst []float64) int
// ELU over whole 8-element blocks of dst (two 4-lane blocks per pass),
// from the start, stopping before the first block that holds a NaN or a
// lane below −708; returns the elements done. Each non-positive lane is
// EXP8, then exp − 1 as Go's subtract rounds it; lanes with x > 0 are
// blended back as x. A block the kernel declines is where archExp leaves
// EXP8's branch: at x < −708.39… its k + 0x3FF reaches 0 and the result
// goes denormal, and NaN returns x. The caller finishes such blocks, and
// the tail, with the scalar loop. TestAVX2ELUIsMathExp pins the kernel
// against the toolchain's math.Exp, so a Go release that changes
// exp_amd64.s shows there first.
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
	VCMPPD  $0x19, exptab<>+416(SB), Y0, Y1 // !(x ≥ −708): below the floor or NaN
	VCMPPD  $0x19, exptab<>+416(SB), Y8, Y9
	VORPD   Y9, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL   DX, DX
	JNZ     eludone

	VMOVAPD Y0, Y3
	VMOVAPD Y8, Y11
	EXP8(Y3, Y1, X2, Y2, Y11, Y9, X10, Y10)
	VSUBPD  exptab<>+352(SB), Y3, Y3 // exp(x) − 1
	VSUBPD  exptab<>+352(SB), Y11, Y11

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

// GELUU sets u = √(2/π)·(x + ((0.044715·x)·x)·x) and z = |u|, rounding
// each product and sum as Go's left-to-right evaluation does.
#define GELUU(x, u, z) \
	VMULPD  exptab<>+448(SB), x, u; \
	VMULPD  x, u, u; \
	VMULPD  x, u, u; \
	VADDPD  u, x, u; \
	VMULPD  exptab<>+480(SB), u, u; \
	VANDPD  exptab<>+512(SB), u, z

// GELUT sets a = (0.5·x)·(1 + t), t = math.Tanh(u), for four finite
// lanes, from GELUU's u and z, a = EXP8's exp(min(2z, MAXLOG)), and
// scratch registers b, c, d and e. It evaluates tanh.go's branches on
// every lane and blends them by z: the rational u + ((u·s)·P(s))/Q(s),
// s = u·u, below 0.625, and 1 − 2/(exp(2z) + 1), given u's sign, from
// there. Clamping 2z to MAXLOG changes no lane up to 0.5·MAXLOG, and
// above it, where tanh returns ±1, the exp branch returns ±1 too:
// 2/(exp(MAXLOG) + 1) ≈ 1.2e-38 is far below half an ulp of 1; the clamp
// keeps every lane in EXP8's range. tanh returns u itself at u = ±0
// where the rational gives +0; GELUT skips that case too, because 1 + t
// is 1 for either zero.
#define GELUT(x, u, z, a, b, c, d, e) \
	VADDPD  exptab<>+352(SB), a, a; \
	VMOVUPD exptab<>+384(SB), b; \
	VDIVPD  a, b, b; \
	VMOVUPD exptab<>+352(SB), a; \
	VSUBPD  b, a, a; \
	VXORPD  z, u, b; \
	VORPD   b, a, a; \
	VMULPD  u, u, c; \
	VMULPD  exptab<>+640(SB), c, d; \
	VADDPD  exptab<>+672(SB), d, d; \
	VMULPD  c, d, d; \
	VADDPD  exptab<>+704(SB), d, d; \
	VMULPD  c, u, e; \
	VMULPD  d, e, e; \
	VADDPD  exptab<>+736(SB), c, d; \
	VMULPD  c, d, d; \
	VADDPD  exptab<>+768(SB), d, d; \
	VMULPD  c, d, d; \
	VADDPD  exptab<>+800(SB), d, d; \
	VDIVPD  d, e, e; \
	VADDPD  u, e, e; \
	VCMPPD  $0x1D, exptab<>+608(SB), z, d; \
	VBLENDVPD d, a, e, e; \
	VADDPD  exptab<>+352(SB), e, e; \
	VMULPD  exptab<>+320(SB), x, a; \
	VMULPD  e, a, a

// func geluAsm(x, dst []float64) int
// GELU over whole 8-element blocks of dst (two 4-lane blocks per pass),
// from the start, stopping before the first block whose u is NaN or ±Inf
// (x is NaN or ±Inf, or 0.044715·x³ overflows); returns the elements
// done. Every lane is GELUT, whose exp branch sees 2|u| in [1.25, 88.03]:
// no overflow, no denormal, EXP8's range. The caller finishes declined
// blocks, and the tail, with the scalar loop. TestAVX2GELUIsGELU pins
// the kernel against the toolchain's math.Tanh.
TEXT ·geluAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ dst_base+24(FP), DI
	MOVQ dst_len+32(FP), CX
	XORQ AX, AX
	SHRQ $3, CX
	JZ   geludone

geluloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y8
	GELUU(Y0, Y1, Y2)
	GELUU(Y8, Y9, Y10)
	VCMPPD  $0x15, exptab<>+544(SB), Y2, Y3 // !(|u| < Inf): ±Inf or NaN
	VCMPPD  $0x15, exptab<>+544(SB), Y10, Y11
	VORPD   Y11, Y3, Y3
	VMOVMSKPD Y3, DX
	TESTL   DX, DX
	JNZ     geludone

	VADDPD  Y2, Y2, Y3 // exp(min(2|u|, MAXLOG))
	VADDPD  Y10, Y10, Y11
	VMINPD  exptab<>+576(SB), Y3, Y3
	VMINPD  exptab<>+576(SB), Y11, Y11
	EXP8(Y3, Y4, X5, Y5, Y11, Y12, X13, Y13)
	GELUT(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	GELUT(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y3, (DI)
	VMOVUPD Y11, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $8, AX
	DECQ CX
	JNZ  geluloop

geludone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
