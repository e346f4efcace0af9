// AVX2 float32 microkernels: the f32 ports of the dot/sum/axpy/
// mul-accumulate kernels in avx2_amd64.s. The same numeric rules hold —
// separate VMULPS/VADDPS (never FMA), so the order-preserving kernels
// (axpy, mulacc) stay bit-exact against the float32 reference — but
// each YMM register now holds 8 floats, so the 64-byte main loop covers
// 16 elements per iteration instead of 8. The reductions (dot, sum) run
// 16 lanes of partial sums — accumulator lane l holds the elements with
// index ≡ l (mod 16) — reduced by a fixed tree (Y1 into Y0, high 128
// into low, then two horizontal adds): the order every backend sums in
// at float32, written out in Go as dotLanes and sumLanes. Tails are
// scalar VEX ops, and every exit runs VZEROUPPER before RET.

#include "textflag.h"

// func dotAsm32(x, y []float32) float32
TEXT ·dotAsm32(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   dotreduce32

dotloop32:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VMULPS (DI), Y2, Y2
	VMULPS 32(DI), Y3, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  dotloop32

dotreduce32:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $15, CX
	JZ   dotdone32

dottail32:
	VMOVSS (SI), X2
	VMULSS (DI), X2, X2
	VADDSS X2, X0, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dottail32

dotdone32:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func sumAsm32(x []float32) float32
TEXT ·sumAsm32(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   sumreduce32

sumloop32:
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	ADDQ $64, SI
	DECQ BX
	JNZ  sumloop32

sumreduce32:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $15, CX
	JZ   sumdone32

sumtail32:
	VADDSS (SI), X0, X0
	ADDQ $4, SI
	DECQ CX
	JNZ  sumtail32

sumdone32:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpyAsm32(alpha float32, x, y []float32)
// y[i] += alpha·x[i]; multiply then add, bit-exact vs the reference.
TEXT ·axpyAsm32(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   axpytailcnt32

axpyloop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMULPS Y0, Y1, Y1
	VMULPS Y0, Y2, Y2
	VADDPS (DI), Y1, Y1
	VADDPS 32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  axpyloop32

axpytailcnt32:
	ANDQ $15, CX
	JZ   axpydone32

axpytail32:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  axpytail32

axpydone32:
	VZEROUPPER
	RET

// func mulaccAsm32(x, y, dst []float32)
// dst[i] += x[i]·y[i]; multiply then add, bit-exact vs the reference.
TEXT ·mulaccAsm32(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DX
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   mulacctailcnt32

mulaccloop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMULPS (DX), Y1, Y1
	VMULPS 32(DX), Y2, Y2
	VADDPS (DI), Y1, Y1
	VADDPS 32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ BX
	JNZ  mulaccloop32

mulacctailcnt32:
	ANDQ $15, CX
	JZ   mulaccdone32

mulacctail32:
	VMOVSS (SI), X1
	VMULSS (DX), X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, DI
	DECQ CX
	JNZ  mulacctail32

mulaccdone32:
	VZEROUPPER
	RET

// func matmulQuadAsm32(a0, a1, a2, a3 float32, b, out []float32)
// Four ascending p-steps of the matmul inner loop in one pass over the
// output row, each multiply and add rounding separately in that order
// (no FMA) — the exact rounding sequence of four consecutive scalar
// p-iterations, so the kernel stays bit-exact vs the scalar32 reference. b holds the four consecutive B
// rows contiguously (stride n = len(out)); the main loop covers 16
// floats per iteration (two YMM of 8 lanes).
TEXT ·matmulQuadAsm32(SB), NOSPLIT, $0-64
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ b_base+16(FP), SI
	MOVQ out_base+40(FP), DI
	MOVQ out_len+48(FP), CX
	MOVQ CX, DX
	SHLQ $2, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R8    // row p+1
	LEAQ (R8)(DX*1), R9    // row p+2
	LEAQ (R9)(DX*1), R10   // row p+3
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   quadtailcnt32

quadloop32:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS (SI), Y6
	VMOVUPS 32(SI), Y7
	VMULPS  Y0, Y6, Y6
	VMULPS  Y0, Y7, Y7
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VMOVUPS (R8), Y6
	VMOVUPS 32(R8), Y7
	VMULPS  Y1, Y6, Y6
	VMULPS  Y1, Y7, Y7
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	VMULPS  Y2, Y6, Y6
	VMULPS  Y2, Y7, Y7
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VMOVUPS (R10), Y6
	VMOVUPS 32(R10), Y7
	VMULPS  Y3, Y6, Y6
	VMULPS  Y3, Y7, Y7
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, DI
	DECQ BX
	JNZ  quadloop32

quadtailcnt32:
	ANDQ $15, CX
	JZ   quaddone32

quadtail32:
	VMOVSS (DI), X4
	VMOVSS (SI), X6
	VMULSS X0, X6, X6
	VADDSS X6, X4, X4
	VMOVSS (R8), X6
	VMULSS X1, X6, X6
	VADDSS X6, X4, X4
	VMOVSS (R9), X6
	VMULSS X2, X6, X6
	VADDSS X6, X4, X4
	VMOVSS (R10), X6
	VMULSS X3, X6, X6
	VADDSS X6, X4, X4
	VMOVSS X4, (DI)
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, DI
	DECQ CX
	JNZ  quadtail32

quaddone32:
	VZEROUPPER
	RET
