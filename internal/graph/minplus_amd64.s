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
