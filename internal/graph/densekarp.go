package graph

import "math"

// KarpScratch holds every buffer MaxMeanCycleDense needs: the negated
// transposed weight matrix, the O(m^2) walk table D[k][v],
// shortest-path potentials, the tight-subgraph DFS state and, for subsets
// that are not complete, the SCC split. The zero value is ready; buffers
// grow to the largest subset seen and are then reused, so steady-state
// calls allocate nothing.
type KarpScratch struct {
	wT     Dense     // wT[v][u] = -w(u -> v); absent and diagonal +Inf
	d      []float64 // (m+1) x m table, row-major
	pot    []float64
	color  []int
	parent []int
	stackV []int
	stackI []int
	cycle  []int

	// The SCC split of a subset with absent entries: the components of
	// wT, one component's block of wT and its ms ids, and the best cycle
	// so far, which later components must not overwrite.
	scc     SCCScratch
	members []int
	sub     Dense
	ids     []int
	best    []int
}

func (s *KarpScratch) reset(m int) {
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

// karpMinLaneWork is the least number of sums a lane must reduce per walk
// length to pay for the barrier that ends the step; below it the walk
// table is filled inline. BenchmarkKarpMaxMeanCycleDense with the
// AVX-512 reduction and the lane count forced, median of 3 at -cpu 2 on
// a 2-vCPU Xeon: 2 lanes lose at n=256 (33k sums each, 3.20 → 3.69 ms)
// and n=384 (74k, 8.73 → 11.3 ms), break even at n=512 (131k, 36.1 →
// 36.3 ms) and win from n=640 (205k, 91.2 → 75.4 ms; at n=1024, 430 →
// 286 ms). The AVX2 reduction broke even at the same size.
const karpMinLaneWork = 160_000

// MaxMeanCycleDense computes the maximum mean cycle of the digraph induced
// by ms on the node subset comp: the edge u -> v carries weight
// ms[comp[u]][comp[v]] where that entry is finite, diagonal ignored. When
// every off-diagonal subset entry is finite — a Floyd-Warshall closure
// restricted to one strongly connected component — Karp's walk table runs
// once from local node 0. Otherwise the subset is split into its strongly
// connected components and the walk table runs on each one of at least two
// nodes; the first maximum in component order wins. The second return
// value is false when the subset is acyclic. The returned cycle aliases
// the scratch and is valid until the next call with the same scratch.
//
// The walk table is updated column-parallel per walk length; each entry is
// a min-reduction over sources, which no split or order changes for
// NaN-free inputs, so the cycle mean is bit-identical for every pool size.
func MaxMeanCycleDense(ms *Dense, comp []int, s *KarpScratch, pool *Pool) (MeanCycle, bool) {
	m := len(comp)
	return maxMeanCycleLanes(ms, comp, s, pool, laneCount(pool, m*m, karpMinLaneWork))
}

// maxMeanCycleLanes is MaxMeanCycleDense with the walk table filled on at
// most the given number of lanes, itself at most pool.Lanes().
func maxMeanCycleLanes(ms *Dense, comp []int, s *KarpScratch, pool *Pool, lanes int) (MeanCycle, bool) {
	m := len(comp)
	if m <= 1 {
		// The complete-digraph view has no self-loops, so singletons (and
		// empty subsets) carry no cycle.
		return MeanCycle{}, false
	}

	// Build the negated transpose (Karp's minimum variant on negated
	// weights yields the maximum); wT rows make both the walk-table update
	// and the potential relaxation stream contiguous memory.
	s.wT.Reset(m)
	complete := true
	for v := 0; v < m; v++ {
		row := s.wT.Row(v)
		cv := comp[v]
		for u := 0; u < m; u++ {
			x := ms.At(comp[u], cv)
			if math.IsInf(x, 1) {
				complete = complete && u == v // the diagonal does not count
				row[u] = Inf
				continue
			}
			row[u] = -x
		}
		row[v] = Inf // no self-loops
	}
	if complete {
		return s.walk(&s.wT, comp, pool, lanes)
	}

	// A transpose has the components of the original; Karp from local
	// node 0 is exact on each, complete or not.
	nc := SCCDense(&s.wT, &s.scc)
	best, found := MeanCycle{}, false
	for c := 0; c < nc; c++ {
		s.members = s.members[:0]
		for v, cv := range s.scc.CompOf {
			if cv == c {
				s.members = append(s.members, v)
			}
		}
		k := len(s.members)
		if k < 2 {
			continue
		}
		s.sub.Reset(k)
		s.ids = s.ids[:0]
		for a, v := range s.members {
			src, dst := s.wT.Row(v), s.sub.Row(a)
			for b, u := range s.members {
				dst[b] = src[u]
			}
			s.ids = append(s.ids, comp[v])
		}
		mc, ok := s.walk(&s.sub, s.ids, pool, min(lanes, laneCount(pool, k*k, karpMinLaneWork)))
		if !ok || (found && mc.Mean <= best.Mean) {
			continue
		}
		best, found = MeanCycle{Mean: mc.Mean}, true
		if mc.Cycle != nil {
			s.best = append(s.best[:0], mc.Cycle...)
			best.Cycle = s.best
		}
	}
	return best, found
}

// walk runs Karp's walk table on the m×m negated transpose wT from local
// node 0 and maps the critical cycle through ids. Exact when the digraph
// of wT's finite entries is strongly connected.
func (s *KarpScratch) walk(wT *Dense, ids []int, pool *Pool, lanes int) (MeanCycle, bool) {
	m := wT.N()
	s.reset(m)

	// D[k][v] = min total negated weight of a walk with exactly k edges
	// from local node 0 to v.
	d := s.d
	for v := 0; v < m; v++ {
		d[v] = Inf
	}
	d[0] = 0
	if lanes <= 1 {
		for k := 1; k <= m; k++ {
			karpRelaxCols(wT, d, m, k, 0, m)
		}
	} else {
		bar := NewBarrier(lanes)
		pool.Run(lanes, func(part int) {
			lo, hi := shardRange(m, lanes, part)
			for k := 1; k <= m; k++ {
				karpRelaxCols(wT, d, m, k, lo, hi)
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

	cycle := criticalCycleDense(s, wT, ids, lambda)
	return MeanCycle{Mean: -lambda, Cycle: cycle}, true
}

// karpRelaxCols computes D[k][v] for v in [lo, hi) from row k-1. Each
// entry is a min-reduction over sources (karpMinSum); min over NaN-free
// floats is associative and commutative, so the result is bit-identical
// to a sequential scan for any lane split.
func karpRelaxCols(wT *Dense, d []float64, m, k, lo, hi int) {
	prev := d[(k-1)*m : k*m]
	cur := d[k*m : (k+1)*m]
	v := lo
	for ; v+4 <= hi; v += 4 {
		karpMinSum4(prev, wT.data[v*m:(v+4)*m], (*[4]float64)(cur[v:v+4]))
	}
	for ; v < hi; v++ {
		cur[v] = karpMinSum(prev, wT.Row(v))
	}
}

// criticalCycleDense finds a cycle whose negated mean equals lambda in the
// digraph of wT's finite entries: shortest-path potentials under reduced
// weights, then a DFS for a back edge in the tight subgraph, whose every
// cycle is critical. The cycle is mapped through ids and aliases the
// scratch.
func criticalCycleDense(s *KarpScratch, wT *Dense, ids []int, lambda float64) []int {
	m := wT.N()
	scale := 1.0 + math.Abs(lambda)
	for v := 0; v < m; v++ {
		for _, x := range wT.Row(v) {
			// Absent edges and the diagonal are +Inf; a scale they set
			// would count every absent edge as tight.
			if a := math.Abs(x); a > scale && !math.IsInf(x, 1) {
				scale = a
			}
		}
	}
	tol := 1e-9 * scale

	// Bellman-Ford from an implicit super-source (all potentials start 0);
	// reduced weights have no negative cycles, so m passes converge.
	//
	// A row is scanned only when its least candidate, min over u of
	// (pot[u]+row[u])-lambda, beats pv-tol. The scan only lowers pv, so
	// when the least candidate does not beat the starting pv no candidate
	// does, and the scan would change nothing. Subtracting lambda is
	// monotone in the rounded sum, so the least candidate is the rounded
	// least sum minus lambda: one karpMinSum over the row. That sum also
	// counts u = v, which the scan skips; it can only add a scan that
	// changes nothing, never drop one.
	pot := s.pot
	for i := range pot {
		pot[i] = 0
	}
	for pass := 0; pass < m; pass++ {
		changed := false
		for v := 0; v < m; v++ {
			row := wT.Row(v)
			pv := pot[v]
			if !(karpMinSum(pot, row)-lambda < pv-tol) {
				continue
			}
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
		return math.Abs(pot[u]+wT.At(v, u)-lambda-pot[v]) <= 2*tol
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
					// Reverse and map through ids, closing the loop.
					for i, j := 0, len(s.cycle)-1; i < j; i, j = i+1, j-1 {
						s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
					}
					for i, u := range s.cycle {
						s.cycle[i] = ids[u]
					}
					s.cycle = append(s.cycle, ids[w])
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
