package graph

// useAVX2 selects the vector bodies of the min-plus kernels. It is set
// once at init and read-only afterwards.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state: CPUID leaf 1 (OSXSAVE, AVX), XCR0 bits 1-2 (SSE and AVX state),
// and CPUID leaf 7 EBX bit 5 (AVX2).
func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func fwRowMinAVX2(row, tile []float64, dik float64)

//go:noescape
func karpMinSumAVX2(prev, row []float64) float64

//go:noescape
func bfRelaxRowAVX2(dist []float64, parent []int, row []float64, du float64, u int) bool
