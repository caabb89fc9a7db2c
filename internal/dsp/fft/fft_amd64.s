//go:build amd64 && !purego

#include "textflag.h"

// SSE2 radix-4 butterflies for the scrambled-order transforms. One
// complex128 sits in each XMM register (real part in lane 0), so a
// complex add or subtract is one ADDPD/SUBPD. A complex multiply is
// a·(br, br) + swap(a)·(−bi, bi): the same four products and two sums
// as Go's ar·br − ai·bi, ar·bi + ai·br, with x − y computed as
// x + (−y), which IEEE 754 defines identically. There is no FMA, and
// the Go compiler does not fuse multiply-adds on amd64 either (the
// identity tests pass at GOAMD64=v1 and v3), so every kernel is
// bit-identical to its Go reference in fft.go.
// Go slice data is only 8-byte aligned, so every memory access uses
// MOVUPD and arithmetic runs register-register.

DATA signLo<>+0(SB)/8, $0x8000000000000000
DATA signLo<>+8(SB)/8, $0
GLOBL signLo<>(SB), RODATA|NOPTR, $16

DATA signHi<>+0(SB)/8, $0
DATA signHi<>+8(SB)/8, $0x8000000000000000
GLOBL signHi<>(SB), RODATA|NOPTR, $16

// 1/√2 (rt2 in fft.go) in both lanes.
DATA rt2x2<>+0(SB)/8, $0x3fe6a09e667f3bcd
DATA rt2x2<>+8(SB)/8, $0x3fe6a09e667f3bcd
GLOBL rt2x2<>(SB), RODATA|NOPTR, $16

// CMUL sets a = a·b for the complex128 b at mem; lo holds signLo and
// b, c, d are clobbered.
#define CMUL(a, mem, b, c, d, lo) \
	MOVUPD   mem, b;   \
	MOVAPD   b, c;     \
	UNPCKLPD b, b;     \
	UNPCKHPD c, c;     \
	XORPD    lo, c;    \
	MOVAPD   a, d;     \
	SHUFPD   $1, d, d; \
	MULPD    b, a;     \
	MULPD    c, d;     \
	ADDPD    d, a

// BF4 is the 4-point butterfly shared by every kernel: with
// u0 = a0+a2, u2 = a0−a2, u1 = a1+a3, u3 = a1−a3 and w the quarter
// turn (−i for mask = signHi, +i for mask = signLo), it leaves
// a2 = u0+u1, a3 = u2+w·u3, t = u0−u1, a0 = u2−w·u3. a1, u are
// clobbered.
#define BF4(a0, a1, a2, a3, t, u, mask) \
	MOVAPD a0, t;      \
	ADDPD  a2, t;      \
	SUBPD  a2, a0;     \
	MOVAPD a1, u;      \
	ADDPD  a3, u;      \
	SUBPD  a3, a1;     \
	SHUFPD $1, a1, a1; \
	XORPD  mask, a1;   \
	MOVAPD t, a2;      \
	ADDPD  u, a2;      \
	SUBPD  u, t;       \
	MOVAPD a0, a3;     \
	ADDPD  a1, a3;     \
	SUBPD  a1, a0

// func fwdStage4Asm(x *complex128, n, size int, tw *complex128)
//
// fwdStage4 over x[:n] (n a multiple of size, size ≥ 8): per block,
// per quarter index j, the forward 4-point butterfly of
// x0[j], x1[j], x2[j], x3[j], with outputs 1..3 twiddled by the
// triple at tw[3j] for j ≥ 1.
TEXT ·fwdStage4Asm(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   size+16(FP), DX
	MOVQ   tw+24(FP), R8
	MOVUPD signLo<>(SB), X14
	MOVUPD signHi<>(SB), X15
	MOVQ   DX, R9
	SHLQ   $2, R9              // quarter stride in bytes
	LEAQ   (R9)(R9*2), R10     // three quarters
	SHLQ   $4, CX
	ADDQ   DI, CX              // end of x
	SHLQ   $4, DX              // block stride in bytes

fwdBlock:
	MOVQ   DI, SI
	LEAQ   (DI)(R9*1), R11     // end of the block's first quarter
	LEAQ   48(R8), BX          // twiddle triple for j = 1

	// j = 0: unit twiddles.
	MOVUPD (SI), X0
	MOVUPD (SI)(R9*1), X1
	MOVUPD (SI)(R9*2), X2
	MOVUPD (SI)(R10*1), X3
	BF4(X0, X1, X2, X3, X4, X5, X15)
	MOVUPD X2, (SI)
	MOVUPD X3, (SI)(R9*1)
	MOVUPD X4, (SI)(R9*2)
	MOVUPD X0, (SI)(R10*1)
	ADDQ   $16, SI

fwdLoop:
	MOVUPD (SI), X0
	MOVUPD (SI)(R9*1), X1
	MOVUPD (SI)(R9*2), X2
	MOVUPD (SI)(R10*1), X3
	BF4(X0, X1, X2, X3, X4, X5, X15)
	CMUL(X3, 0(BX), X6, X7, X8, X14)
	CMUL(X4, 16(BX), X9, X10, X11, X14)
	CMUL(X0, 32(BX), X6, X7, X8, X14)
	MOVUPD X2, (SI)
	MOVUPD X3, (SI)(R9*1)
	MOVUPD X4, (SI)(R9*2)
	MOVUPD X0, (SI)(R10*1)
	ADDQ   $16, SI
	ADDQ   $48, BX
	CMPQ   SI, R11
	JB     fwdLoop

	ADDQ   DX, DI
	CMPQ   DI, CX
	JB     fwdBlock
	RET

// func invStage4Asm(x *complex128, n, size int, tw *complex128)
//
// invStage4 over x[:n]: inputs 1..3 twiddled by the (conjugated)
// triple at tw[3j] for j ≥ 1, then the inverse 4-point butterfly.
TEXT ·invStage4Asm(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   size+16(FP), DX
	MOVQ   tw+24(FP), R8
	MOVUPD signLo<>(SB), X14
	MOVQ   DX, R9
	SHLQ   $2, R9
	LEAQ   (R9)(R9*2), R10
	SHLQ   $4, CX
	ADDQ   DI, CX
	SHLQ   $4, DX

invBlock:
	MOVQ   DI, SI
	LEAQ   (DI)(R9*1), R11
	LEAQ   48(R8), BX

	MOVUPD (SI), X0
	MOVUPD (SI)(R9*1), X1
	MOVUPD (SI)(R9*2), X2
	MOVUPD (SI)(R10*1), X3
	BF4(X0, X1, X2, X3, X4, X5, X14)
	MOVUPD X2, (SI)
	MOVUPD X3, (SI)(R9*1)
	MOVUPD X4, (SI)(R9*2)
	MOVUPD X0, (SI)(R10*1)
	ADDQ   $16, SI

invLoop:
	MOVUPD (SI), X0
	MOVUPD (SI)(R9*1), X1
	MOVUPD (SI)(R9*2), X2
	MOVUPD (SI)(R10*1), X3
	CMUL(X1, 0(BX), X6, X7, X8, X14)
	CMUL(X2, 16(BX), X9, X10, X11, X14)
	CMUL(X3, 32(BX), X6, X7, X8, X14)
	BF4(X0, X1, X2, X3, X4, X5, X14)
	MOVUPD X2, (SI)
	MOVUPD X3, (SI)(R9*1)
	MOVUPD X4, (SI)(R9*2)
	MOVUPD X0, (SI)(R10*1)
	ADDQ   $16, SI
	ADDQ   $48, BX
	CMPQ   SI, R11
	JB     invLoop

	ADDQ   DX, DI
	CMPQ   DI, CX
	JB     invBlock
	RET

// func fwd8Asm(x *complex128, blocks int)
//
// fwd8 over blocks 8-blocks: the 4-point forward butterflies of the
// even and of the odd elements, the odd outputs twiddled by ω₈^k, and
// the size-2 combination.
TEXT ·fwd8Asm(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), SI
	MOVQ   blocks+8(FP), CX
	MOVUPD signHi<>(SB), X12
	MOVUPD signLo<>(SB), X13
	MOVUPD rt2x2<>(SB), X14

fwd8Loop:
	MOVUPD 0(SI), X0
	MOVUPD 32(SI), X1
	MOVUPD 64(SI), X2
	MOVUPD 96(SI), X3
	BF4(X0, X1, X2, X3, X4, X5, X12) // s0 X2, s1 X3, s2 X4, s3 X0
	MOVUPD 16(SI), X6
	MOVUPD 48(SI), X7
	MOVUPD 80(SI), X8
	MOVUPD 112(SI), X9
	BF4(X6, X7, X8, X9, X10, X11, X12) // t0 X8, t1 X9, t2 X10, t3 X6

	// t1·(1−i)/√2 = ((r+i)·rt2, (i−r)·rt2)
	MOVAPD X9, X1
	SHUFPD $1, X1, X1
	XORPD  X12, X1
	ADDPD  X1, X9
	MULPD  X14, X9
	// t2·(−i)
	SHUFPD $1, X10, X10
	XORPD  X12, X10
	// t3·(−1−i)/√2 = ((i−r)·rt2, −((r+i)·rt2)), into X1
	MOVAPD X6, X1
	SHUFPD $1, X1, X1
	XORPD  X13, X6
	ADDPD  X6, X1
	MULPD  X14, X1
	XORPD  X12, X1

	MOVAPD X2, X5
	ADDPD  X8, X5
	SUBPD  X8, X2
	MOVUPD X5, 0(SI)
	MOVUPD X2, 16(SI)
	MOVAPD X3, X5
	ADDPD  X9, X5
	SUBPD  X9, X3
	MOVUPD X5, 32(SI)
	MOVUPD X3, 48(SI)
	MOVAPD X4, X5
	ADDPD  X10, X5
	SUBPD  X10, X4
	MOVUPD X5, 64(SI)
	MOVUPD X4, 80(SI)
	MOVAPD X0, X5
	ADDPD  X1, X5
	SUBPD  X1, X0
	MOVUPD X5, 96(SI)
	MOVUPD X0, 112(SI)

	ADDQ   $128, SI
	DECQ   CX
	JNZ    fwd8Loop
	RET

// func inv8MulAsm(x, src, spec *complex128, blocks int)
//
// inv8Mul over blocks 8-blocks: the products src[k]·spec[k], the
// size-2 stage, the conjugated ω₈ twiddles and the inverse 4-point
// butterflies. Every src element of a block is loaded before any x
// element is stored, so x may alias src.
TEXT ·inv8MulAsm(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   spec+16(FP), R8
	MOVQ   blocks+24(FP), CX
	MOVUPD signHi<>(SB), X12
	MOVUPD signLo<>(SB), X13
	MOVUPD rt2x2<>(SB), X14

inv8Loop:
	MOVUPD 0(SI), X0
	CMUL(X0, 0(R8), X9, X10, X11, X13)
	MOVUPD 16(SI), X1
	CMUL(X1, 16(R8), X9, X10, X11, X13)
	MOVAPD X0, X2
	ADDPD  X1, X2                // s0
	SUBPD  X1, X0                // t0
	MOVUPD 32(SI), X1
	CMUL(X1, 32(R8), X9, X10, X11, X13)
	MOVUPD 48(SI), X3
	CMUL(X3, 48(R8), X9, X10, X11, X13)
	MOVAPD X1, X4
	ADDPD  X3, X4                // s1
	SUBPD  X3, X1                // t1
	MOVUPD 64(SI), X3
	CMUL(X3, 64(R8), X9, X10, X11, X13)
	MOVUPD 80(SI), X5
	CMUL(X5, 80(R8), X9, X10, X11, X13)
	MOVAPD X3, X6
	ADDPD  X5, X6                // s2
	SUBPD  X5, X3                // t2
	MOVUPD 96(SI), X5
	CMUL(X5, 96(R8), X9, X10, X11, X13)
	MOVUPD 112(SI), X7
	CMUL(X7, 112(R8), X9, X10, X11, X13)
	MOVAPD X5, X8
	ADDPD  X7, X8                // s3
	SUBPD  X7, X5                // t3

	BF4(X2, X4, X6, X8, X7, X9, X13)
	MOVUPD X6, 0(DI)
	MOVUPD X8, 32(DI)
	MOVUPD X7, 64(DI)
	MOVUPD X2, 96(DI)

	// w1 = t1·(1+i)/√2 = ((r−i)·rt2, (r+i)·rt2)
	MOVAPD X1, X9
	SHUFPD $1, X9, X9
	XORPD  X13, X9
	ADDPD  X9, X1
	MULPD  X14, X1
	// w2 = t2·(+i)
	SHUFPD $1, X3, X3
	XORPD  X13, X3
	// w3 = t3·(−1+i)/√2 = (−((r+i)·rt2), (r−i)·rt2), into X9
	MOVAPD X5, X9
	SHUFPD $1, X9, X9
	XORPD  X12, X5
	ADDPD  X5, X9
	MULPD  X14, X9
	XORPD  X13, X9

	BF4(X0, X1, X3, X9, X7, X10, X13)
	MOVUPD X3, 16(DI)
	MOVUPD X9, 48(DI)
	MOVUPD X7, 80(DI)
	MOVUPD X0, 112(DI)

	ADDQ   $128, DI
	ADDQ   $128, SI
	ADDQ   $128, R8
	DECQ   CX
	JNZ    inv8Loop
	RET
