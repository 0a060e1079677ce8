// Package graph is the weighted-digraph substrate of the clock
// synchronization pipeline. Each of the paper's four graph operations
// (closure, maximum mean cycle, root distances, component split) has one
// implementation, on Dense; CSR adds only the component split of a sparse
// input that has no closure yet:
//
//   - Dense, a flat n×n matrix with +Inf for an absent edge. It carries
//     every graph operation: FloydWarshallDense (GLOBAL ESTIMATES, Theorem
//     5.5), MaxMeanCycleDense (Karp's A_max, §4.4), BellmanFordDense and
//     BellmanFordDenseFrom (the corrections, Theorem 4.6) and SCCDense
//     (the sync-component split).
//   - CSR, a compressed-sparse-row adjacency. It carries the sparse input
//     before any closure exists: SCCCSR, SCCDense's Tarjan body over
//     adjacency lists, splits it into components, which the sparse
//     backend then closes one Dense block at a time.
//
// The solve paths use them as follows:
//
//   - the dense Synchronizer, and so Stream's batch re-solves and the dist
//     and netsync coordinators: FloydWarshallDense, SCCDense,
//     MaxMeanCycleDense, BellmanFordDense;
//   - Stream's certified cache: ClosureEdgeInert on the dense closure;
//   - the sparse backend: SCCCSR on the m~ls adjacency, then the dense
//     kernels per component;
//   - the hierarchical backend: the sparse backend's per-block steps on
//     each cluster and on the contracted boundary graph, BellmanFordDense
//     on the boundary and BellmanFordDenseFrom from it into each cluster.
//
// MaxMeanCycleDense takes any node subset: on one whose entries are not
// all finite it runs SCCDense and Karp per component. Weights are float64;
// NaN and -Inf never appear in valid inputs.
//
// The dense kernels' O(n³) inner loops are the min-plus kernels of
// minplus.go: Go loops everywhere, and on amd64 assembly at the widest
// level the CPU has, AVX-512 (F, DQ and VL) or else AVX2, chosen once at
// start-up (KernelLevel names it); bit-identical at every level.
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
