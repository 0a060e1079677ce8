package graph

// The three min-plus inner loops every dense solve spends its time in.
// Each has a Go loop here, the only path off amd64 and on CPUs without
// AVX2, and an AVX2 body in minplus_amd64.s picked once at init (useAVX2).
//
// The vector bodies reproduce Go's min bit for bit. The compiler lowers
// min(x, y) on float64 to two MINSD and a POR, so an exact ±0 tie yields
// −0 and any other pair yields the smaller value; the assembly computes
// VMINPD in both operand orders and ORs the results, which gives the same
// bits lane by lane. For NaN-free values that min is the minimum under
// the total order with −0 < +0, hence associative and commutative, so the
// striped reduction in karpMinSum matches any sequential scan. Every
// output of the dense kernels is therefore bit-identical on both paths.

// fwRowMin sets row[j] = min(row[j], dik+tile[j]) for every j: one pivot
// row applied to one row of the Floyd-Warshall closure. tile must be at
// least as long as row.
func fwRowMin(row, tile []float64, dik float64) {
	tile = tile[:len(row)]
	if useAVX2 {
		fwRowMinAVX2(row, tile, dik)
		return
	}
	fwRowMinGo(row, tile, dik)
}

func fwRowMinGo(row, tile []float64, dik float64) {
	for j, dkj := range tile {
		row[j] = min(row[j], dik+dkj)
	}
}

// karpMinSum returns the minimum over u of prev[u]+row[u] (+Inf for empty
// slices): one entry of Karp's walk table. row must be at least as long
// as prev.
func karpMinSum(prev, row []float64) float64 {
	row = row[:len(prev)]
	if useAVX2 {
		return karpMinSumAVX2(prev, row)
	}
	return karpMinSumGo(prev, row)
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
// the sequential loop reads it.
func bfRelaxRow(dist []float64, parent []int, row []float64, du float64, u int) bool {
	dist = dist[:len(row)]
	parent = parent[:len(row)]
	if useAVX2 {
		return bfRelaxRowAVX2(dist, parent, row, du, u)
	}
	return bfRelaxRowGo(dist, parent, row, du, u)
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
