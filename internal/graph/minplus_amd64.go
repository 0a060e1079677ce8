package graph

// cpuKernelLevel returns the widest kernel level this CPU and OS run.
// AVX2 needs CPUID leaf 1 (OSXSAVE, AVX), XCR0 bits 1-2 (SSE and AVX
// state) and CPUID leaf 7 EBX bit 5. AVX-512 needs AVX2, leaf 7 EBX bits
// 16 (F), 17 (DQ, for VRANGEPD) and 31 (VL, for its ymm and xmm forms),
// and XCR0 bits 1-2 and 5-7 (opmask and the upper zmm state).
func cpuKernelLevel() int {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return levelGo
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return levelGo
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return levelGo
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&(1<<5) == 0 {
		return levelGo
	}
	const avx512 = 1<<16 | 1<<17 | 1<<31
	if ebx7&avx512 == avx512 && xcr0&0xE6 == 0xE6 {
		return levelAVX512
	}
	return levelAVX2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func fwRowMinAVX2(row, tile []float64, dik float64)

//go:noescape
func karpMinSumAVX2(prev, row []float64) float64

//go:noescape
func bfRelaxRowAVX2(dist []float64, parent []int, row []float64, du float64, u int) bool

//go:noescape
func fwRowMinAVX512(row, tile []float64, dik float64)

//go:noescape
func karpMinSumAVX512(prev, row []float64) float64

//go:noescape
func karpMinSum4AVX512(prev, rows []float64, out *[4]float64)

//go:noescape
func bfRelaxRowAVX512(dist []float64, parent []int, row []float64, du float64, u int) bool
