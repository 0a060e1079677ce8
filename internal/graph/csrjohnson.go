package graph

import (
	"math"
	"slices"
)

// JohnsonScratch holds the reusable state of AllPairsJohnsonCSR: the
// Bellman-Ford potentials, the reweighted edge weights, the per-source
// distances and touched list, and the Dijkstra heap. The zero value is
// ready.
type JohnsonScratch struct {
	pot     []float64
	dist    []float64
	wgt     []float64
	heap    []distItem
	touched []int
}

// AllPairsJohnsonCSR is Johnson's algorithm native to CSR: it computes
// all-pairs shortest paths over g and writes them as a CSR "closure" into
// out — row u lists exactly the nodes reachable from u (always including
// u itself at distance 0), in ascending order. Unreachable pairs are
// simply absent, so the output costs O(sum of reachable-set sizes)
// instead of O(n^2): on a graph whose condensation is wide (many mutually
// unreachable components) the closure stays as sparse as the reachability
// relation itself.
//
// Per-source state is reset via a touched-node list, so each Dijkstra
// costs O(|reach| log |reach|) rather than O(n). Returns ErrNegativeCycle
// under the usual relative tolerance.
func AllPairsJohnsonCSR(g *CSR, out *CSR, s *JohnsonScratch) error {
	g.Build()
	n := g.n
	if cap(s.pot) < n {
		s.pot = make([]float64, n)
		s.dist = make([]float64, n)
	}
	s.pot = s.pot[:n]
	s.dist = s.dist[:n]

	// Potentials via Bellman-Ford from an implicit super-source.
	pot := s.pot
	for i := range pot {
		pot[i] = 0
	}
	for pass := 0; pass < n; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			pu := pot[u]
			for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
				if nd := pu + g.wgt[e]; nd < pot[g.colIdx[e]] {
					pot[g.colIdx[e]] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for u := 0; u < n; u++ {
		pu := pot[u]
		for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
			v := g.colIdx[e]
			if pu+g.wgt[e] < pot[v]-1e-9*(1+math.Abs(pot[v])) {
				return ErrNegativeCycle
			}
		}
	}

	// Reweighted copy w'(u,v) = w + pot[u] - pot[v] >= 0 (clamping float
	// noise); g itself stays untouched.
	s.wgt = growFloatsCap(s.wgt, len(g.wgt))
	for u := 0; u < n; u++ {
		pu := pot[u]
		for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
			x := g.wgt[e] + pu - pot[g.colIdx[e]]
			if x < 0 {
				x = 0
			}
			s.wgt[e] = x
		}
	}

	out.Reset(n)
	dist := s.dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	s.touched = s.touched[:0]
	for src := 0; src < n; src++ {
		out.rowPtr[src] = len(out.colIdx)
		dist[src] = 0
		s.touched = append(s.touched, src)
		h := s.heap[:0]
		h = append(h, distItem{node: src, dist: 0})
		for len(h) > 0 {
			item := h[0]
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			siftDown(h, 0)
			if item.dist > dist[item.node] {
				continue // stale entry
			}
			u := item.node
			for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
				v := g.colIdx[e]
				nd := item.dist + s.wgt[e]
				if nd < dist[v] {
					if math.IsInf(dist[v], 1) {
						s.touched = append(s.touched, v)
					}
					dist[v] = nd
					h = append(h, distItem{node: v, dist: nd})
					siftUp(h, len(h)-1)
				}
			}
		}
		s.heap = h[:0]
		slices.Sort(s.touched)
		psrc := pot[src]
		for _, v := range s.touched {
			out.colIdx = append(out.colIdx, v)
			if v == src {
				out.wgt = append(out.wgt, 0)
			} else {
				out.wgt = append(out.wgt, dist[v]-psrc+pot[v])
			}
			dist[v] = math.Inf(1)
		}
		s.touched = s.touched[:0]
	}
	out.rowPtr[n] = len(out.colIdx)
	out.built = true
	return nil
}

// MaxMeanCycleCSR computes the maximum mean cycle of the CSR digraph g, running Karp's algorithm independently per
// strongly connected component — O(k·m_k) time and O(k·m_k) walk-table
// memory per component of size k instead of a single O(n·m) pass over the
// whole graph. The second return value is false when g is acyclic.
func MaxMeanCycleCSR(g *CSR) (MeanCycle, bool) {
	g.Build()
	n := g.n
	var scc SCCScratch
	nc := SCCCSR(g, &scc)
	// Bucket members per component, ascending.
	size := make([]int, nc)
	for _, c := range scc.CompOf {
		size[c]++
	}
	start := make([]int, nc+1)
	for c := 0; c < nc; c++ {
		start[c+1] = start[c] + size[c]
	}
	members := make([]int, n)
	fill := make([]int, nc)
	copy(fill, start[:nc])
	for v := 0; v < n; v++ {
		c := scc.CompOf[v]
		members[fill[c]] = v
		fill[c]++
	}
	local := make([]int, n)

	best := MeanCycle{}
	found := false
	var edges []edge
	for c := 0; c < nc; c++ {
		comp := members[start[c]:start[c+1]]
		for i, v := range comp {
			local[v] = i
		}
		edges = edges[:0]
		for _, v := range comp {
			for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
				w := g.colIdx[e]
				if scc.CompOf[w] == c {
					edges = append(edges, edge{from: local[v], to: local[w], weight: g.wgt[e]})
				}
			}
		}
		mc, ok := karpLocal(edges, len(comp), comp)
		if !ok {
			continue
		}
		if !found || mc.Mean > best.Mean {
			best = mc
		}
		found = true
	}
	return best, found
}

// distItem is a Dijkstra heap entry; siftUp and siftDown maintain a binary
// min-heap of them ordered by dist.
type distItem struct {
	node int
	dist float64
}

func siftUp(h []distItem, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []distItem, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].dist < h[small].dist {
			small = l
		}
		if r < n && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
