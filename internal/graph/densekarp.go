package graph

import "math"

// KarpScratch holds every buffer MaxMeanCycleDense needs: the negated
// transposed weight matrix, the O(m^2) walk table D[k][v],
// shortest-path potentials, and the tight-subgraph DFS state. The zero
// value is ready; buffers grow to the largest component seen and are then
// reused, so steady-state calls allocate nothing.
type KarpScratch struct {
	wT     Dense     // wT[v][u] = -w(u -> v); diagonal +Inf
	d      []float64 // (m+1) x m table, row-major
	pot    []float64
	color  []int
	parent []int
	stackV []int
	stackI []int
	cycle  []int
}

func (s *KarpScratch) reset(m int) {
	s.wT.Reset(m)
	if cap(s.d) < (m+1)*m {
		s.d = make([]float64, (m+1)*m)
	}
	s.d = s.d[:(m+1)*m]
	if cap(s.pot) < m {
		s.pot = make([]float64, m)
		s.color = make([]int, m)
		s.parent = make([]int, m)
		s.stackV = make([]int, 0, m)
		s.stackI = make([]int, 0, m)
	}
	s.pot = s.pot[:m]
	s.color = s.color[:m]
	s.parent = s.parent[:m]
	s.cycle = s.cycle[:0]
}

// karpMinCols is the minimum number of columns per lane in the parallel
// walk-table update.
const karpMinCols = 32

// MaxMeanCycleDense computes the maximum mean cycle of the complete
// digraph induced by ms on the node subset comp: the edge u -> v carries
// weight ms[comp[u]][comp[v]], diagonal ignored. The fast path needs every
// off-diagonal subset entry finite — exactly what a Floyd-Warshall closure
// restricted to one strongly connected component yields; a subset with
// +Inf entries falls back to MaxMeanCycleCSR on its finite entries, which
// returns the maximum over the subset's components. The returned cycle
// aliases the scratch and is valid until the next call with the same
// scratch.
//
// The walk table is updated column-parallel per walk length with the
// min-reduction over sources in fixed ascending order, so the cycle mean
// is bit-identical for every pool size.
func MaxMeanCycleDense(ms *Dense, comp []int, s *KarpScratch, pool *Pool) (MeanCycle, bool) {
	m := len(comp)
	if m <= 1 {
		// The complete-digraph view has no self-loops, so singletons (and
		// empty subsets) carry no cycle.
		return MeanCycle{}, false
	}
	s.reset(m)

	// Build the negated transpose (Karp's minimum variant on negated
	// weights yields the maximum); wT rows make both the walk-table update
	// and the potential relaxation stream contiguous memory.
	for v := 0; v < m; v++ {
		row := s.wT.Row(v)
		cv := comp[v]
		for u := 0; u < m; u++ {
			x := ms.At(comp[u], cv)
			if math.IsInf(x, 1) {
				return maxMeanCycleSubsetSlow(ms, comp)
			}
			row[u] = -x
		}
		row[v] = Inf // no self-loops
	}

	// D[k][v] = min total negated weight of a walk with exactly k edges
	// from local node 0 to v.
	d := s.d
	for v := 0; v < m; v++ {
		d[v] = Inf
	}
	d[0] = 0
	lanes := laneCount(pool, m, karpMinCols)
	if lanes <= 1 {
		for k := 1; k <= m; k++ {
			karpRelaxCols(s, m, k, 0, m)
		}
	} else {
		bar := NewBarrier(lanes)
		pool.Run(lanes, func(part int) {
			lo, hi := shardRange(m, lanes, part)
			for k := 1; k <= m; k++ {
				karpRelaxCols(s, m, k, lo, hi)
				bar.Wait()
			}
		})
	}

	// lambda* = min over v of max over k of (D[m][v]-D[k][v])/(m-k).
	lambda := math.Inf(1)
	dm := d[m*m : m*m+m]
	for v := 0; v < m; v++ {
		if math.IsInf(dm[v], 1) {
			continue
		}
		worst := math.Inf(-1)
		for k := 0; k < m; k++ {
			dkv := d[k*m+v]
			if math.IsInf(dkv, 1) {
				continue
			}
			if r := (dm[v] - dkv) / float64(m-k); r > worst {
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

	cycle := criticalCycleDense(s, m, comp, lambda)
	return MeanCycle{Mean: -lambda, Cycle: cycle}, true
}

// karpRelaxCols computes D[k][v] for v in [lo, hi) from row k-1. The
// min-reduction runs branchless on four independent accumulators so the
// loop is bound by add/min throughput, not by the latency chain of a
// single running minimum; min over NaN-free floats is associative and
// commutative, so the striped reduction is bit-identical to a sequential
// scan for any lane split.
func karpRelaxCols(s *KarpScratch, m, k, lo, hi int) {
	prev := s.d[(k-1)*m : k*m]
	cur := s.d[k*m : (k+1)*m]
	for v := lo; v < hi; v++ {
		row := s.wT.Row(v)[:len(prev)]
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
		cur[v] = best
	}
}

// criticalCycleDense finds a cycle whose negated mean equals lambda, as
// criticalCycle does: shortest-path potentials under reduced weights, then
// a DFS for a back edge in the tight subgraph. The cycle slice aliases the
// scratch.
func criticalCycleDense(s *KarpScratch, m int, comp []int, lambda float64) []int {
	scale := 1.0 + math.Abs(lambda)
	for v := 0; v < m; v++ {
		row := s.wT.Row(v)
		for u := 0; u < m; u++ {
			if u == v {
				continue
			}
			if a := math.Abs(row[u]); a > scale {
				scale = a
			}
		}
	}
	tol := 1e-9 * scale

	// Bellman-Ford from an implicit super-source (all potentials start 0);
	// reduced weights have no negative cycles, so m passes converge.
	pot := s.pot
	for i := range pot {
		pot[i] = 0
	}
	for pass := 0; pass < m; pass++ {
		changed := false
		for v := 0; v < m; v++ {
			row := s.wT.Row(v)
			pv := pot[v]
			for u, pu := range pot {
				if u == v {
					continue
				}
				if nd := pu + row[u] - lambda; nd < pv-tol {
					pv = nd
					changed = true
				}
			}
			pot[v] = pv
		}
		if !changed {
			break
		}
	}

	// Iterative DFS over the implicit tight subgraph: edge u -> v is tight
	// when its reduced weight closes the potential gap within tolerance.
	tight := func(u, v int) bool {
		return math.Abs(pot[u]+s.wT.At(v, u)-lambda-pot[v]) <= 2*tol
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	for i := 0; i < m; i++ {
		s.color[i] = white
		s.parent[i] = -1
	}
	for root := 0; root < m; root++ {
		if s.color[root] != white {
			continue
		}
		s.stackV = append(s.stackV[:0], root)
		s.stackI = append(s.stackI[:0], 0)
		s.color[root] = gray
		for len(s.stackV) > 0 {
			top := len(s.stackV) - 1
			v := s.stackV[top]
			advanced := false
			for s.stackI[top] < m {
				w := s.stackI[top]
				s.stackI[top]++
				if w == v || !tight(v, w) {
					continue
				}
				switch s.color[w] {
				case white:
					s.color[w] = gray
					s.parent[w] = v
					s.stackV = append(s.stackV, w)
					s.stackI = append(s.stackI, 0)
					advanced = true
				case gray:
					// Back edge v -> w: the cycle runs w -> ... -> v -> w
					// along parent pointers.
					s.cycle = s.cycle[:0]
					for u := v; u != w; u = s.parent[u] {
						s.cycle = append(s.cycle, u)
					}
					s.cycle = append(s.cycle, w)
					// Reverse and map to ms coordinates, closing the loop.
					for i, j := 0, len(s.cycle)-1; i < j; i, j = i+1, j-1 {
						s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
					}
					for i, u := range s.cycle {
						s.cycle[i] = comp[u]
					}
					s.cycle = append(s.cycle, comp[w])
					return normalizeCycle(s.cycle)
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			s.color[v] = black
			s.stackV = s.stackV[:top]
			s.stackI = s.stackI[:top]
		}
	}
	return nil
}

// maxMeanCycleSubsetSlow is the fallback for subsets with absent edges:
// compile the subset's finite entries into a CSR and run the per-component
// Karp, remapping the cycle to ms coordinates. Allocating, but only
// reachable on inputs that are not closure components.
func maxMeanCycleSubsetSlow(ms *Dense, comp []int) (MeanCycle, bool) {
	g := NewCSR(len(comp))
	for a, p := range comp {
		for b, q := range comp {
			g.MustAddEdge(a, b, ms.At(p, q))
		}
	}
	mc, ok := MaxMeanCycleCSR(g)
	if !ok {
		return MeanCycle{}, false
	}
	for i, v := range mc.Cycle {
		mc.Cycle[i] = comp[v]
	}
	return mc, true
}
