package graph

import (
	"errors"
	"math"
)

// ErrNegativeCycle is returned by shortest-path routines when a negative
// weight cycle is reachable from the source (or present anywhere, for
// all-pairs routines).
var ErrNegativeCycle = errors.New("graph: negative weight cycle")

// BellmanFordDense computes single-source shortest paths from src over the
// dense weight matrix w (w[u][v] is the u->v edge weight, +Inf absent,
// diagonal ignored — set it to +Inf). dist and parent are caller-owned
// scratch of length w.N(); on success dist[v] is the shortest distance
// (+Inf unreachable) and parent[v] the predecessor (-1 for the source and
// unreachable nodes).
//
// The relaxation order is passes, then source row u ascending, then target
// column v ascending. It returns ErrNegativeCycle when a negative cycle is
// reachable from src, under a generous relative tolerance (1e-9): it
// exists to catch genuinely infeasible inputs, not accumulated
// floating-point dust from upstream cycle-mean computations.
func BellmanFordDense(w *Dense, src int, dist []float64, parent []int) error {
	n := w.n
	if src < 0 || src >= n {
		return errors.New("graph: source out of range")
	}
	if len(dist) != n || len(parent) != n {
		return errors.New("graph: scratch length mismatch")
	}
	for i := 0; i < n; i++ {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	return BellmanFordDenseFrom(w, dist, parent)
}

// BellmanFordDenseFrom is BellmanFordDense with a caller-initialized
// distance vector: every finite dist entry acts as a source pinned at
// that potential (the classic multi-source formulation the hierarchical
// solver uses to extend boundary corrections into cluster interiors).
// parent must be pre-initialized by the caller; dist entries may only
// decrease. The relaxation order and negative-cycle tolerance are those
// of BellmanFordDense.
func BellmanFordDenseFrom(w *Dense, dist []float64, parent []int) error {
	n := w.n
	if len(dist) != n || len(parent) != n {
		return errors.New("graph: scratch length mismatch")
	}
	for pass := 0; pass < n-1; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if math.IsInf(du, 1) {
				continue
			}
			if bfRelaxRow(dist, parent, w.data[u*n:u*n+n], du, u) {
				changed = true
			}
		}
		if !changed {
			// A pass that relaxed nothing left every du+w[u][v] >=
			// dist[v], so the check below cannot fire.
			return nil
		}
	}
	// One more pass: any relaxation now implies a reachable negative cycle.
	for u := 0; u < n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		row := w.data[u*n : u*n+n]
		for v, wv := range row {
			if du+wv < dist[v]-1e-9*(1+math.Abs(dist[v])) {
				return ErrNegativeCycle
			}
		}
	}
	return nil
}
