// Package graph is the weighted-digraph substrate of the clock
// synchronization pipeline. It has two representations, and each of the
// paper's four graph operations exists once:
//
//   - Dense, a flat n×n matrix with +Inf for an absent edge. It carries
//     every closure: FloydWarshallDense (GLOBAL ESTIMATES, Theorem 5.5),
//     MaxMeanCycleDense (Karp's A_max, §4.4), BellmanFordDense and
//     BellmanFordDenseFrom (the corrections, Theorem 4.6) and SCCDense
//     (the sync-component split).
//   - CSR, a compressed-sparse-row adjacency. It carries the sparse input
//     before any closure exists: SCCCSR splits it into components, and
//     AllPairsJohnsonCSR and MaxMeanCycleCSR solve it without an n×n
//     matrix.
//
// The solve paths use them as follows:
//
//   - the dense Synchronizer, and so Stream's batch re-solves and the dist
//     and netsync coordinators: FloydWarshallDense, SCCDense,
//     MaxMeanCycleDense, BellmanFordDense;
//   - Stream's incremental path: ClosureEdgeInert and ClosureDecreaseEdge
//     on the dense closure;
//   - the sparse backend: SCCCSR on the m~ls adjacency, then the dense
//     kernels per component;
//   - the hierarchical backend: the dense kernels per cluster and on the
//     contracted boundary graph, then BellmanFordDenseFrom.
//
// MaxMeanCycleCSR also backs MaxMeanCycleDense on subsets with absent
// edges. Weights are float64; NaN and -Inf never appear in valid inputs.
package graph

import "math"

// Inf is the weight of an absent edge.
var Inf = math.Inf(1)

// NewMatrix allocates an n×n matrix filled with fill.
func NewMatrix(n int, fill float64) [][]float64 {
	w := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range buf {
		buf[i] = fill
	}
	for i := range w {
		w[i], buf = buf[:n:n], buf[n:]
	}
	return w
}

// CloneMatrix returns a deep copy of w.
func CloneMatrix(w [][]float64) [][]float64 {
	out := make([][]float64, len(w))
	for i := range w {
		out[i] = append([]float64(nil), w[i]...)
	}
	return out
}
