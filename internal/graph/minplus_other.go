//go:build !amd64

package graph

// Off amd64 the Go loops are the only min-plus kernels.
const useAVX2 = false

func fwRowMinAVX2(row, tile []float64, dik float64) { fwRowMinGo(row, tile, dik) }

func karpMinSumAVX2(prev, row []float64) float64 { return karpMinSumGo(prev, row) }

func bfRelaxRowAVX2(dist []float64, parent []int, row []float64, du float64, u int) bool {
	return bfRelaxRowGo(dist, parent, row, du, u)
}
