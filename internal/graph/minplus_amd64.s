#include "textflag.h"

// The AVX2 bodies of the min-plus kernels in minplus.go. Each min mirrors
// the compiler's lowering of Go's min(x, y): VMINPD in both operand
// orders, results ORed, so an exact ±0 tie gives −0 (see minplus.go).

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fwRowMinAVX2(row, tile []float64, dik float64)
// row[j] = min(row[j], dik+tile[j]) for j < len(row).
TEXT ·fwRowMinAVX2(SB), NOSPLIT, $0-56
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ tile_base+24(FP), SI
	VBROADCASTSD dik+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

fw8:
	CMPQ AX, DX
	JAE  fw4
	VADDPD  (SI)(AX*8), Y0, Y1
	VADDPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VMINPD  Y1, Y3, Y5
	VMINPD  Y3, Y1, Y6
	VMINPD  Y2, Y4, Y7
	VMINPD  Y4, Y2, Y8
	VORPD   Y5, Y6, Y5
	VORPD   Y7, Y8, Y7
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     fw8

fw4:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JA   fw1
	VADDPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y3
	VMINPD  Y1, Y3, Y5
	VMINPD  Y3, Y1, Y6
	VORPD   Y5, Y6, Y5
	VMOVUPD Y5, (DI)(AX*8)
	MOVQ    BX, AX

fw1:
	CMPQ AX, CX
	JAE  fwdone
	VMOVSD (SI)(AX*8), X1
	VADDSD X0, X1, X1
	VMOVSD (DI)(AX*8), X3
	VMINSD X1, X3, X5
	VMINSD X3, X1, X6
	VORPD  X5, X6, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    fw1

fwdone:
	VZEROUPPER
	RET

// func karpMinSumAVX2(prev, row []float64) float64
// min over u < len(prev) of prev[u]+row[u]; +Inf when empty.
TEXT ·karpMinSumAVX2(SB), NOSPLIT, $0-56
	MOVQ prev_base+0(FP), SI
	MOVQ prev_len+8(FP), CX
	MOVQ row_base+24(FP), DI
	MOVQ $0x7FF0000000000000, AX
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

karp16:
	CMPQ AX, DX
	JAE  karp4
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y5, Y5
	VADDPD  64(DI)(AX*8), Y6, Y6
	VADDPD  96(DI)(AX*8), Y7, Y7
	VMINPD  Y4, Y0, Y8
	VMINPD  Y0, Y4, Y9
	VMINPD  Y5, Y1, Y10
	VMINPD  Y1, Y5, Y11
	VMINPD  Y6, Y2, Y12
	VMINPD  Y2, Y6, Y13
	VMINPD  Y7, Y3, Y4
	VMINPD  Y3, Y7, Y5
	VORPD   Y8, Y9, Y0
	VORPD   Y10, Y11, Y1
	VORPD   Y12, Y13, Y2
	VORPD   Y4, Y5, Y3
	ADDQ    $16, AX
	JMP     karp16

karp4:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JA   karpreduce
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMINPD  Y4, Y0, Y8
	VMINPD  Y0, Y4, Y9
	VORPD   Y8, Y9, Y0
	MOVQ    BX, AX
	JMP     karp4

karpreduce:
	VMINPD Y1, Y0, Y8
	VMINPD Y0, Y1, Y9
	VMINPD Y3, Y2, Y10
	VMINPD Y2, Y3, Y11
	VORPD  Y8, Y9, Y0
	VORPD  Y10, Y11, Y2
	VMINPD Y2, Y0, Y8
	VMINPD Y0, Y2, Y9
	VORPD  Y8, Y9, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPD X1, X0, X8
	VMINPD X0, X1, X9
	VORPD  X8, X9, X0
	VPERMILPD $1, X0, X1
	VMINSD X1, X0, X8
	VMINSD X0, X1, X9
	VORPD  X8, X9, X0

karp1:
	CMPQ AX, CX
	JAE  karpdone
	VMOVSD (SI)(AX*8), X4
	VADDSD (DI)(AX*8), X4, X4
	VMINSD X4, X0, X8
	VMINSD X0, X4, X9
	VORPD  X8, X9, X0
	INCQ   AX
	JMP    karp1

karpdone:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func bfRelaxRowAVX2(dist []float64, parent []int, row []float64, du float64, u int) bool
// Where du+row[v] < dist[v]: dist[v] = du+row[v], parent[v] = u. Reports
// whether any v changed.
TEXT ·bfRelaxRowAVX2(SB), NOSPLIT, $0-89
	MOVQ dist_base+0(FP), DI
	MOVQ parent_base+24(FP), R8
	MOVQ row_base+48(FP), SI
	MOVQ row_len+56(FP), CX
	MOVQ u+80(FP), R10
	VBROADCASTSD du+72(FP), Y0
	VPBROADCASTQ u+80(FP), Y1
	VXORPD Y2, Y2, Y2
	XORQ   R9, R9
	XORQ   AX, AX

bf4:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JA   bf1
	VADDPD    (SI)(AX*8), Y0, Y3
	VMOVUPD   (DI)(AX*8), Y4
	VCMPPD    $0x11, Y4, Y3, Y5
	VBLENDVPD Y5, Y3, Y4, Y6
	VMOVDQU   (R8)(AX*8), Y7
	VBLENDVPD Y5, Y1, Y7, Y8
	VMOVUPD   Y6, (DI)(AX*8)
	VMOVDQU   Y8, (R8)(AX*8)
	VORPD     Y5, Y2, Y2
	MOVQ      BX, AX
	JMP       bf4

bf1:
	CMPQ AX, CX
	JAE  bfdone
	VMOVSD   (SI)(AX*8), X3
	VADDSD   X0, X3, X3
	VMOVSD   (DI)(AX*8), X4
	VUCOMISD X3, X4
	JLS      bfnext
	VMOVSD   X3, (DI)(AX*8)
	MOVQ     R10, (R8)(AX*8)
	MOVL     $1, R9

bfnext:
	INCQ AX
	JMP  bf1

bfdone:
	VMOVMSKPD Y2, BX
	ORQ       R9, BX
	SETNE     ret+88(FP)
	VZEROUPPER
	RET

// The AVX-512 bodies. Each min is one VRANGEPD $4: imm bits 1:0 = 00 pick
// the minimum and bits 3:2 = 01 take the sign from the comparison, which
// equals Go's min on NaN-free input, ±0 ties included (see minplus.go).
// Tails shorter than a zmm run under a lane mask (kernelTailMask), so no
// scalar loop remains; masked loads and stores never touch the lanes past
// the slice.

// kernelTailMask sets K1 to the low CX lanes. It clobbers BX and expects
// 0 < CX < 8.
#define kernelTailMask \
	MOVL  $1, BX  \
	SHLL  CX, BX  \
	DECL  BX      \
	KMOVW BX, K1

// func fwRowMinAVX512(row, tile []float64, dik float64)
// row[j] = min(row[j], dik+tile[j]) for j < len(row).
TEXT ·fwRowMinAVX512(SB), NOSPLIT, $0-56
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ tile_base+24(FP), SI
	VBROADCASTSD dik+48(FP), Z0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

fw16z:
	CMPQ AX, DX
	JAE  fw8z
	VADDPD   (SI)(AX*8), Z0, Z1
	VADDPD   64(SI)(AX*8), Z0, Z2
	VRANGEPD $4, (DI)(AX*8), Z1, Z1
	VRANGEPD $4, 64(DI)(AX*8), Z2, Z2
	VMOVUPD  Z1, (DI)(AX*8)
	VMOVUPD  Z2, 64(DI)(AX*8)
	ADDQ     $16, AX
	JMP      fw16z

fw8z:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JA   fwtailz
	VADDPD   (SI)(AX*8), Z0, Z1
	VRANGEPD $4, (DI)(AX*8), Z1, Z1
	VMOVUPD  Z1, (DI)(AX*8)
	MOVQ     BX, AX

fwtailz:
	SUBQ AX, CX
	JZ   fwdonez
	kernelTailMask
	VMOVUPD  (SI)(AX*8), K1, Z1
	VMOVUPD  (DI)(AX*8), K1, Z2
	VADDPD   Z1, Z0, K1, Z1
	VRANGEPD $4, Z2, Z1, K1, Z1
	VMOVUPD  Z1, K1, (DI)(AX*8)

fwdonez:
	VZEROUPPER
	RET

// func karpMinSumAVX512(prev, row []float64) float64
// min over u < len(prev) of prev[u]+row[u]; +Inf when empty.
TEXT ·karpMinSumAVX512(SB), NOSPLIT, $0-56
	MOVQ prev_base+0(FP), SI
	MOVQ prev_len+8(FP), CX
	MOVQ row_base+24(FP), DI
	MOVQ $0x7FF0000000000000, AX
	VPBROADCASTQ AX, Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

karp32z:
	CMPQ AX, DX
	JAE  karp8z
	VMOVUPD  (SI)(AX*8), Z4
	VMOVUPD  64(SI)(AX*8), Z5
	VMOVUPD  128(SI)(AX*8), Z6
	VMOVUPD  192(SI)(AX*8), Z7
	VADDPD   (DI)(AX*8), Z4, Z4
	VADDPD   64(DI)(AX*8), Z5, Z5
	VADDPD   128(DI)(AX*8), Z6, Z6
	VADDPD   192(DI)(AX*8), Z7, Z7
	VRANGEPD $4, Z4, Z0, Z0
	VRANGEPD $4, Z5, Z1, Z1
	VRANGEPD $4, Z6, Z2, Z2
	VRANGEPD $4, Z7, Z3, Z3
	ADDQ     $32, AX
	JMP      karp32z

karp8z:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JA   karptailz
	VMOVUPD  (SI)(AX*8), Z4
	VADDPD   (DI)(AX*8), Z4, Z4
	VRANGEPD $4, Z4, Z0, Z0
	MOVQ     BX, AX
	JMP      karp8z

karptailz:
	SUBQ AX, CX
	JZ   karpreducez
	kernelTailMask
	VMOVUPD  (SI)(AX*8), K1, Z4
	VMOVUPD  (DI)(AX*8), K1, Z5
	VADDPD   Z5, Z4, K1, Z4
	VRANGEPD $4, Z4, Z1, K1, Z1

karpreducez:
	VRANGEPD      $4, Z1, Z0, Z0
	VRANGEPD      $4, Z3, Z2, Z2
	VRANGEPD      $4, Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VRANGEPD      $4, Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VRANGEPD      $4, X1, X0, X0
	VPERMILPD     $1, X0, X1
	VRANGEPD      $4, X1, X0, X0
	VMOVSD        X0, ret+48(FP)
	VZEROUPPER
	RET

// func bfRelaxRowAVX512(dist []float64, parent []int, row []float64, du float64, u int) bool
// Where du+row[v] < dist[v]: dist[v] = du+row[v], parent[v] = u. Reports
// whether any v changed. The strict less-than (LT_OQ) goes to a mask
// register, which drives the stores of dist and parent.
TEXT ·bfRelaxRowAVX512(SB), NOSPLIT, $0-89
	MOVQ dist_base+0(FP), DI
	MOVQ parent_base+24(FP), R8
	MOVQ row_base+48(FP), SI
	MOVQ row_len+56(FP), CX
	VBROADCASTSD du+72(FP), Z0
	VPBROADCASTQ u+80(FP), Z1
	KXORW K2, K2, K2
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX

bf8z:
	CMPQ AX, DX
	JAE  bftailz
	VADDPD    (SI)(AX*8), Z0, Z3
	VCMPPD    $0x11, (DI)(AX*8), Z3, K3
	VMOVUPD   Z3, K3, (DI)(AX*8)
	VMOVDQU64 Z1, K3, (R8)(AX*8)
	KORW      K3, K2, K2
	ADDQ      $8, AX
	JMP       bf8z

bftailz:
	SUBQ AX, CX
	JZ   bfdonez
	kernelTailMask
	VMOVUPD   (SI)(AX*8), K1, Z3
	VMOVUPD   (DI)(AX*8), K1, Z4
	VADDPD    Z3, Z0, K1, Z3
	VCMPPD    $0x11, Z4, Z3, K1, K3
	VMOVUPD   Z3, K3, (DI)(AX*8)
	VMOVDQU64 Z1, K3, (R8)(AX*8)
	KORW      K3, K2, K2

bfdonez:
	KORTESTW K2, K2
	SETNE    ret+88(FP)
	VZEROUPPER
	RET

// func karpMinSum4AVX512(prev, rows []float64, out *[4]float64)
// out[i] = min over u < len(prev) of prev[u]+rows[i*len(prev)+u], for the
// four rows laid back to back in rows: four columns of Karp's walk table
// sharing the loads of prev, one accumulator each. The four accumulators
// reduce together: 256-bit halves, then 128-bit quarters, then pairs,
// and VCOMPRESSPD stores lanes 0, 2, 4 and 6.
TEXT ·karpMinSum4AVX512(SB), NOSPLIT, $0-56
	MOVQ prev_base+0(FP), SI
	MOVQ prev_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ out+48(FP), R9
	LEAQ (DI)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	MOVQ $0x7FF0000000000000, AX
	VPBROADCASTQ AX, Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

karp4c:
	CMPQ AX, DX
	JAE  karp4ctail
	VMOVUPD  (SI)(AX*8), Z4
	VADDPD   (DI)(AX*8), Z4, Z5
	VADDPD   (R10)(AX*8), Z4, Z6
	VADDPD   (R11)(AX*8), Z4, Z7
	VADDPD   (R12)(AX*8), Z4, Z8
	VRANGEPD $4, Z5, Z0, Z0
	VRANGEPD $4, Z6, Z1, Z1
	VRANGEPD $4, Z7, Z2, Z2
	VRANGEPD $4, Z8, Z3, Z3
	ADDQ     $8, AX
	JMP      karp4c

karp4ctail:
	SUBQ AX, CX
	JZ   karp4creduce
	kernelTailMask
	VMOVUPD  (SI)(AX*8), K1, Z4
	VMOVUPD  (DI)(AX*8), K1, Z5
	VMOVUPD  (R10)(AX*8), K1, Z6
	VMOVUPD  (R11)(AX*8), K1, Z7
	VMOVUPD  (R12)(AX*8), K1, Z8
	VADDPD   Z5, Z4, K1, Z5
	VADDPD   Z6, Z4, K1, Z6
	VADDPD   Z7, Z4, K1, Z7
	VADDPD   Z8, Z4, K1, Z8
	VRANGEPD $4, Z5, Z0, K1, Z0
	VRANGEPD $4, Z6, Z1, K1, Z1
	VRANGEPD $4, Z7, Z2, K1, Z2
	VRANGEPD $4, Z8, Z3, K1, Z3

karp4creduce:
	// Z4 = [Z0 lo, Z1 lo] against [Z0 hi, Z1 hi]; Z6 likewise for Z2, Z3.
	VSHUFF64X2 $0x44, Z1, Z0, Z4
	VSHUFF64X2 $0xEE, Z1, Z0, Z5
	VRANGEPD   $4, Z5, Z4, Z4
	VSHUFF64X2 $0x44, Z3, Z2, Z6
	VSHUFF64X2 $0xEE, Z3, Z2, Z7
	VRANGEPD   $4, Z7, Z6, Z6
	// Even 128-bit quarters against odd: one pair of lanes per column.
	VSHUFF64X2 $0x88, Z6, Z4, Z5
	VSHUFF64X2 $0xDD, Z6, Z4, Z7
	VRANGEPD   $4, Z7, Z5, Z5
	VPERMILPD  $0x55, Z5, Z7
	VRANGEPD   $4, Z7, Z5, Z5
	MOVL       $0x55, BX
	KMOVW      BX, K2
	VCOMPRESSPD Z5, K2, (R9)
	VZEROUPPER
	RET
