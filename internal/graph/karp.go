package graph

import "math"

// MeanCycle is the result of a maximum-mean-cycle computation.
type MeanCycle struct {
	// Mean is the optimal cycle mean.
	Mean float64
	// Cycle is one optimal (critical) cycle as a node sequence with the
	// first node repeated at the end, following edge direction. It may be
	// nil in degenerate numerical cases; Mean is always valid.
	Cycle []int
}

// edge is a directed, weighted edge in a component's local indices.
type edge struct {
	from, to int
	weight   float64
}

// karpLocal runs Karp's maximum-mean-cycle algorithm on one strongly
// connected component given its edges in local indices (comp maps local
// back to graph ids for the reported cycle). It runs the minimum variant on
// negated weights.
func karpLocal(edges []edge, m int, comp []int) (MeanCycle, bool) {
	if m == 0 || len(edges) == 0 {
		return MeanCycle{}, false
	}

	// D[k][v] = min total negated weight of a walk with exactly k edges
	// from the source (local node 0) to v.
	unset := math.Inf(1)
	D := make([][]float64, m+1)
	for k := 0; k <= m; k++ {
		D[k] = make([]float64, m)
		for v := 0; v < m; v++ {
			D[k][v] = unset
		}
	}
	D[0][0] = 0
	for k := 1; k <= m; k++ {
		prev, cur := D[k-1], D[k]
		for _, e := range edges {
			if math.IsInf(prev[e.from], 1) {
				continue
			}
			if nd := prev[e.from] - e.weight; nd < cur[e.to] {
				cur[e.to] = nd
			}
		}
	}

	// lambda* = min over v of max over k of (D[m][v]-D[k][v])/(m-k).
	lambda := math.Inf(1)
	for v := 0; v < m; v++ {
		if math.IsInf(D[m][v], 1) {
			continue
		}
		worst := math.Inf(-1)
		for k := 0; k < m; k++ {
			if math.IsInf(D[k][v], 1) {
				continue
			}
			if r := (D[m][v] - D[k][v]) / float64(m-k); r > worst {
				worst = r
			}
		}
		if worst < lambda {
			lambda = worst
		}
	}
	if math.IsInf(lambda, 1) {
		return MeanCycle{}, false
	}

	cycle := criticalCycle(edges, m, comp, lambda)
	return MeanCycle{Mean: -lambda, Cycle: cycle}, true
}

// criticalCycle finds a cycle whose mean of negated weights equals lambda:
// subtract lambda from every negated weight, compute shortest-path
// potentials, and search for a cycle among tight edges. Every cycle of the
// tight subgraph is critical.
func criticalCycle(edges []edge, m int, comp []int, lambda float64) []int {
	scale := 1.0 + math.Abs(lambda)
	for _, e := range edges {
		if a := math.Abs(e.weight); a > scale {
			scale = a
		}
	}
	tol := 1e-9 * scale

	// Bellman-Ford from an implicit super-source (all potentials start 0);
	// reduced weights have no negative cycles, so m passes converge.
	pot := make([]float64, m)
	for pass := 0; pass < m; pass++ {
		changed := false
		for _, e := range edges {
			w := -e.weight - lambda
			if nd := pot[e.from] + w; nd < pot[e.to]-tol {
				pot[e.to] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Tight subgraph adjacency.
	tight := make([][]int, m)
	for _, e := range edges {
		w := -e.weight - lambda
		if math.Abs(pot[e.from]+w-pot[e.to]) <= 2*tol {
			tight[e.from] = append(tight[e.from], e.to)
		}
	}

	// Iterative DFS looking for a back edge.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, m)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct{ v, i int }
	for s := 0; s < m; s++ {
		if color[s] != white {
			continue
		}
		stack := []frame{{v: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(tight[f.v]) {
				w := tight[f.v][f.i]
				f.i++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case gray:
					// Found a back edge f.v -> w; the cycle is
					// w -> ... -> f.v -> w along parent pointers.
					rev := []int{f.v}
					for u := f.v; u != w; {
						u = parent[u]
						rev = append(rev, u)
					}
					cyc := make([]int, 0, len(rev)+1)
					for i := len(rev) - 1; i >= 0; i-- {
						cyc = append(cyc, comp[rev[i]])
					}
					cyc = append(cyc, comp[w])
					return normalizeCycle(cyc)
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// normalizeCycle removes an accidental duplicated head (w, w, ...) that the
// construction above can produce when the cycle is a self-loop, and ensures
// first == last.
func normalizeCycle(c []int) []int {
	if len(c) < 2 {
		return nil
	}
	if c[0] != c[len(c)-1] {
		c = append(c, c[0])
	}
	return c
}
