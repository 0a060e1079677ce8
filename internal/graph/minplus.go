package graph

// The three min-plus inner loops every dense solve spends its time in.
// Each has a Go loop here, the only path off amd64 and on CPUs without
// AVX2, and two vector bodies in minplus_amd64.s: one on 256-bit AVX2
// registers and one on 512-bit AVX-512 registers. kernelLevel picks the
// widest body the CPU runs, once at init.
//
// The vector bodies reproduce Go's min bit for bit. The compiler lowers
// min(x, y) on float64 to two MINSD and a POR, so an exact ±0 tie yields
// −0 and any other pair yields the smaller value. The AVX2 bodies compute
// VMINPD in both operand orders and OR the results, which gives the same
// bits lane by lane. The AVX-512 bodies use one VRANGEPD $4 per min: it
// selects the smaller operand, takes the sign from that selection and
// counts −0 below +0, so it too returns −0 on a ±0 tie and the smaller
// value otherwise. Unlike the AVX2 pair it is exact on NaN-free input
// only. That is every caller's contract: weights are validated NaN-free,
// distances are finite or +Inf, and only +Inf + −Inf would make a NaN
// sum. For NaN-free values that min is the minimum under the total order
// with −0 < +0, hence associative and commutative, so the striped
// reductions in karpMinSum and karpMinSum4 match any sequential scan.
// Every output of the dense kernels is therefore bit-identical at every
// level.

// The kernel levels, narrowest first.
const (
	levelGo = iota
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{levelGo: "go", levelAVX2: "avx2", levelAVX512: "avx512"}

// kernelLevel selects the bodies of the min-plus kernels. It is set once
// at init and read-only afterwards.
var kernelLevel = cpuKernelLevel()

// KernelLevel names the bodies the min-plus kernels run on this host:
// "go", "avx2" or "avx512".
func KernelLevel() string { return levelNames[kernelLevel] }

// fwRowMin sets row[j] = min(row[j], dik+tile[j]) for every j: one pivot
// row applied to one row of the Floyd-Warshall closure. tile must be at
// least as long as row; all values NaN-free.
func fwRowMin(row, tile []float64, dik float64) {
	tile = tile[:len(row)]
	switch kernelLevel {
	case levelAVX512:
		fwRowMinAVX512(row, tile, dik)
	case levelAVX2:
		fwRowMinAVX2(row, tile, dik)
	default:
		fwRowMinGo(row, tile, dik)
	}
}

func fwRowMinGo(row, tile []float64, dik float64) {
	for j, dkj := range tile {
		row[j] = min(row[j], dik+dkj)
	}
}

// karpMinSum returns the minimum over u of prev[u]+row[u] (+Inf for empty
// slices): one entry of Karp's walk table. row must be at least as long
// as prev; no sum may be NaN.
func karpMinSum(prev, row []float64) float64 {
	row = row[:len(prev)]
	switch kernelLevel {
	case levelAVX512:
		return karpMinSumAVX512(prev, row)
	case levelAVX2:
		return karpMinSumAVX2(prev, row)
	default:
		return karpMinSumGo(prev, row)
	}
}

// karpMinSum4 sets out[i] to karpMinSum(prev, row i) for the four rows
// of len(prev) laid back to back in rows: four entries of Karp's walk
// table at once. The AVX-512 body shares the loads of prev among them and
// reduces the four together; the other levels run karpMinSum four times.
func karpMinSum4(prev, rows []float64, out *[4]float64) {
	rows = rows[:4*len(prev)]
	if kernelLevel == levelAVX512 {
		karpMinSum4AVX512(prev, rows, out)
		return
	}
	for i := range out {
		out[i] = karpMinSum(prev, rows[i*len(prev):(i+1)*len(prev)])
	}
}

// karpMinSumGo runs the reduction on four independent accumulators so the
// loop is bound by add/min throughput, not by the latency chain of a
// single running minimum.
func karpMinSumGo(prev, row []float64) float64 {
	b0, b1, b2, b3 := Inf, Inf, Inf, Inf
	u := 0
	for ; u+4 <= len(prev); u += 4 {
		b0 = min(b0, prev[u]+row[u])
		b1 = min(b1, prev[u+1]+row[u+1])
		b2 = min(b2, prev[u+2]+row[u+2])
		b3 = min(b3, prev[u+3]+row[u+3])
	}
	best := min(min(b0, b1), min(b2, b3))
	for ; u < len(prev); u++ {
		best = min(best, prev[u]+row[u])
	}
	return best
}

// bfRelaxRow relaxes every edge u -> v of one Bellman-Ford source row:
// where du+row[v] < dist[v] strictly, it stores the sum in dist[v] and u
// in parent[v]. It reports whether any entry changed. dist and parent
// must be at least as long as row; du is dist[u] read before the row, as
// the sequential loop reads it. The strict comparison is false on NaN at
// every level, so this kernel needs no NaN-free contract.
func bfRelaxRow(dist []float64, parent []int, row []float64, du float64, u int) bool {
	dist = dist[:len(row)]
	parent = parent[:len(row)]
	switch kernelLevel {
	case levelAVX512:
		return bfRelaxRowAVX512(dist, parent, row, du, u)
	case levelAVX2:
		return bfRelaxRowAVX2(dist, parent, row, du, u)
	default:
		return bfRelaxRowGo(dist, parent, row, du, u)
	}
}

func bfRelaxRowGo(dist []float64, parent []int, row []float64, du float64, u int) bool {
	changed := false
	for v, wv := range row {
		if nd := du + wv; nd < dist[v] {
			dist[v] = nd
			parent[v] = u
			changed = true
		}
	}
	return changed
}
