package graph

import "math"

// Certification for decrease-only closure maintenance.
//
// Setting: ms is an all-pairs shortest-path closure (as produced by
// FloydWarshallDense, zero diagonal, no negative cycles) of some weight
// matrix, and one direct edge u -> v has been TIGHTENED to a new weight w
// (streaming observations only ever shrink the local-shift weights, so
// increases never occur on this path). A tightened edge can only lower
// path weights, and any newly improved pair (i, j) must route
// i ~> u -> v ~> j through old-closure segments, so the new closure is
//
//	ms[i][j] = min(ms[i][j], ms[i][u] + w + ms[v][j]).
//
// By the triangle inequality of the old closure, entry (i, j) can improve
// only if the candidate already improves at (i, v):
//
//	ms[i][u] + w + ms[v][j] < ms[i][j] <= ms[i][v] + ms[v][j]
//	  =>  ms[i][u] + w < ms[i][v]
//
// so when no row improves into v, no entry moves at all, and that is
// decidable in O(n) against the OLD closure.

// inertTol is the relative certification margin of ClosureEdgeInert: a
// candidate must clear the incumbent entry by this margin before the edge
// is certified inert. It matches the repository's shortest-path tolerance
// scale (see negCycleTol) and sits orders of magnitude above accumulated
// rounding noise (~n ulps), so the bitwise-preservation argument below
// survives floating point.
const inertTol = 1e-9

// ClosureEdgeInert reports whether tightening edge u -> v to weight w
// provably leaves the closure ms unchanged BIT FOR BIT, i.e. whether a
// fresh batch Floyd-Warshall on the tightened weights would reproduce ms
// exactly. The certificate is the row test above with a safety margin:
//
//	for all i:  ms[i][u] + w >= ms[i][v] + tol
//
// With the margin, every path sum routed through the tightened edge —
// under ANY summation order a shortest-path kernel might use — exceeds the
// incumbent closure values throughout the recomputation, so no candidate
// involving the edge can win a min and every entry keeps its old bits.
// A false return means some entry may genuinely improve (or sits within
// the margin, where rounding could flip a bit): callers must re-solve.
// O(n), allocation-free.
func ClosureEdgeInert(ms *Dense, u, v int, w float64) bool {
	if u == v || math.IsInf(w, 1) {
		return true // self-loops and +Inf edges constrain nothing
	}
	n := ms.n
	for i := 0; i < n; i++ {
		iu := ms.data[i*n+u]
		if math.IsInf(iu, 1) {
			continue // no path into u: candidates through the edge stay +Inf
		}
		iv := ms.data[i*n+v]
		if iu+w < iv+inertTol*(1+math.Abs(iv)) {
			return false
		}
	}
	return true
}
