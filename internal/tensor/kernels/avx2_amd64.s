// AVX2 microkernels. Every kernel but one uses separate VMULPD/VADDPD
// (never VFMADD): fused multiply-add rounds once where the scalar
// reference rounds twice, and the order-preserving kernels (axpy, mulacc,
// scaledmulacc) are pinned bit-exact against the reference, so FMA
// contraction is off the table by design. The exception is eluAsm: its
// reference is math.Exp, whose amd64 assembly itself uses VFNMADD231SD
// and VFMADD213SD whenever the CPU has FMA. eluAsm fuses exactly the
// operations math.Exp fuses, no others, and runs only on such CPUs, so
// it rounds where the reference rounds. The reassociating reductions
// (dot, sum) run 8 lanes of partial sums — accumulator lane l holds the
// elements with index ≡ l (mod 8) — and reduce lane l with lane l+4,
// then lanes pairwise, a fixed deterministic tree pinned by the
// conformance tolerance budgets. Tails are scalar VEX ops, and every
// exit runs VZEROUPPER before RET.

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

// func matmulQuadAsm(a0, a1, a2, a3 float64, b, out []float64)
// Four ascending p-steps of the matmul inner loop in one pass over the
// output row: out[j] += a0·b[j], then += a1·b[n+j], += a2·b[2n+j],
// += a3·b[3n+j], each multiply and add rounding separately in that order
// (no FMA) — the exact rounding sequence of four consecutive scalar
// p-iterations, so the kernel is bit-exact vs the reference. b holds the
// four consecutive B rows contiguously (stride n = len(out)).
TEXT ·matmulQuadAsm(SB), NOSPLIT, $0-80
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ b_base+32(FP), SI
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), CX
	MOVQ CX, DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R8    // row p+1
	LEAQ (R8)(DX*1), R9    // row p+2
	LEAQ (R9)(DX*1), R10   // row p+3
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   quadtailcnt

quadloop:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R8), Y6
	VMOVUPD 32(R8), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R10), Y6
	VMOVUPD 32(R10), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, DI
	DECQ BX
	JNZ  quadloop

quadtailcnt:
	ANDQ $7, CX
	JZ   quaddone

quadtail:
	VMOVSD (DI), X4
	VMOVSD (SI), X6
	VMULSD X0, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R8), X6
	VMULSD X1, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R9), X6
	VMULSD X2, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (R10), X6
	VMULSD X3, X6, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, DI
	DECQ CX
	JNZ  quadtail

quaddone:
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
