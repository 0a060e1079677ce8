package graph

import "math"

// MeanCycleBelow reports whether every cycle of the digraph induced by ms
// provably has mean weight at most lambda − tol, where the edge u -> v
// carries ms[u][v], the diagonal and +Inf entries are ignored, and
//
//	tol = inertTol · max(1, |lambda|, max finite off-diagonal |ms|).
//
// It is the cheap side of a maximum mean cycle computation: a caller that
// only needs to know whether the maximum mean stays below a known bound
// can skip Karp's Θ(n³) walk table whenever this returns true. The test is
// Bellman-Ford from an implicit super-source (every potential starts at 0)
// over the weights (lambda − tol) − ms[u][v]: those carry no negative
// cycle exactly when no cycle mean exceeds lambda − tol, and then at most
// n passes reach a fixed point. A pass that relaxes nothing proves it; a
// false return after n passes means some cycle mean exceeds lambda − tol
// or sits too close to it to decide. A 2-cycle with mean above
// lambda − tol is such a cycle, and on closures it is usually the first
// to exceed, so an O(n²) scan of the 2-cycles returns false before any
// pass when one does.
//
// A true return is sound in floating point: at the fixed point every edge
// satisfies the computed relaxation bound, and summing it around any
// cycle bounds the exact mean by lambda − tol plus rounding of order
// n·ε·scale, far inside the margin for any size this package closes. The
// margin also keeps the answer off the knife edge where rounding in a
// separate max-mean-cycle computation could place the mean on either side
// of lambda. dist is caller-owned scratch of length at least ms.N(); the
// call allocates nothing.
func MeanCycleBelow(ms *Dense, lambda float64, dist []float64) bool {
	n := ms.n
	scale := max(1, math.Abs(lambda))
	twoCycle := math.Inf(-1) // largest finite ms[u][v] + ms[v][u]
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			a, b := ms.data[u*n+v], ms.data[v*n+u]
			if !math.IsInf(a, 1) {
				scale = max(scale, math.Abs(a))
			}
			if !math.IsInf(b, 1) {
				scale = max(scale, math.Abs(b))
				if !math.IsInf(a, 1) {
					twoCycle = max(twoCycle, a+b)
				}
			}
		}
	}
	c := lambda - inertTol*scale
	if twoCycle > 2*c {
		return false
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = 0
	}
	for pass := 0; pass < n; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u] + c
			row := ms.data[u*n : u*n+n]
			for v, x := range row {
				if v == u || math.IsInf(x, 1) {
					continue
				}
				if nd := du - x; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
