//go:build !amd64

package graph

// Off amd64 the Go loops are the only min-plus kernels; the vector
// bodies below only satisfy the dispatch in minplus.go.
func cpuKernelLevel() int { return levelGo }

func fwRowMinAVX2(row, tile []float64, dik float64) { fwRowMinGo(row, tile, dik) }

func karpMinSumAVX2(prev, row []float64) float64 { return karpMinSumGo(prev, row) }

func bfRelaxRowAVX2(dist []float64, parent []int, row []float64, du float64, u int) bool {
	return bfRelaxRowGo(dist, parent, row, du, u)
}

func fwRowMinAVX512(row, tile []float64, dik float64) { fwRowMinGo(row, tile, dik) }

func karpMinSumAVX512(prev, row []float64) float64 { return karpMinSumGo(prev, row) }

func karpMinSum4AVX512(prev, rows []float64, out *[4]float64) {
	for i := range out {
		out[i] = karpMinSumGo(prev, rows[i*len(prev):(i+1)*len(prev)])
	}
}

func bfRelaxRowAVX512(dist []float64, parent []int, row []float64, du float64, u int) bool {
	return bfRelaxRowGo(dist, parent, row, du, u)
}
