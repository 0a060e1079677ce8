package graph

import (
	"math"
	"math/rand"
)

// RandomStronglyConnected returns the weight matrix of a digraph on n nodes
// that is guaranteed to be strongly connected: a random Hamiltonian cycle
// is installed first, then extra edges are added with probability p.
// Weights are uniform in [lo, hi); where the two draws hit the same pair
// the lighter edge is kept. Absent edges are +Inf and the diagonal is 0,
// ready for FloydWarshallDense. Deterministic for a given *rand.Rand state.
func RandomStronglyConnected(rng *rand.Rand, n int, p, lo, hi float64) *Dense {
	d := NewDense(n)
	d.Fill(Inf)
	d.FillDiag(0)
	if n == 0 {
		return d
	}
	add := func(i, j int) {
		if w := lo + (hi-lo)*rng.Float64(); w < d.At(i, j) {
			d.Set(i, j, w)
		}
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		add(perm[i], perm[(i+1)%n])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= p {
				continue
			}
			add(i, j)
		}
	}
	return d
}

// SparseTopology selects a RandomSparse generator family.
type SparseTopology int

const (
	// TopologyRingOfCliques: dense cliques linked in a ring — the
	// clustered shape of rack/site networks, and the best case for the
	// hierarchical solver (cluster boundaries are single links).
	TopologyRingOfCliques SparseTopology = iota
	// TopologyGeometric: random geometric graph on the unit square —
	// ad hoc radio networks; locality makes partitions meaningful.
	TopologyGeometric
	// TopologyBoundedDegree: ring plus random chords with bounded
	// out-degree — an expander-like worst case for partitioning.
	TopologyBoundedDegree
)

// RandomSparse builds a large sparse symmetric test instance of roughly n
// nodes without ever touching an O(n^2) structure: every edge is added in
// both directions with independent weights drawn uniformly from [lo, hi),
// so with lo >= 0 the instance is always feasible (no negative cycles).
// Deterministic for a given *rand.Rand state. The returned graph is
// built; callers may stage further edges and rebuild.
func RandomSparse(rng *rand.Rand, topo SparseTopology, n int, lo, hi float64) *CSR {
	switch topo {
	case TopologyGeometric:
		return SparseRandomGeometric(rng, n, geometricRadius(n), 12, lo, hi)
	case TopologyBoundedDegree:
		return SparseBoundedDegree(rng, n, 4, lo, hi)
	default:
		size := 32
		if n < 2*size {
			size = n/2 + 1
		}
		cliques := (n + size - 1) / size
		if cliques < 1 {
			cliques = 1
		}
		return SparseRingOfCliques(rng, cliques, size, lo, hi)
	}
}

// geometricRadius picks a connection radius giving expected degree ~8.
func geometricRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(8 / (math.Pi * float64(n)))
}

// SparseRingOfCliques returns a graph of `cliques` fully connected blocks
// of `size` nodes each, consecutive blocks joined by a bidirectional
// bridge between the last node of one and the first node of the next
// (plus the closing bridge, making the whole graph strongly connected
// for cliques >= 1). Weights are uniform in [lo, hi) per direction.
func SparseRingOfCliques(rng *rand.Rand, cliques, size int, lo, hi float64) *CSR {
	if cliques < 1 {
		cliques = 1
	}
	if size < 1 {
		size = 1
	}
	n := cliques * size
	g := NewCSR(n)
	w := func() float64 { return lo + (hi-lo)*rng.Float64() }
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if i != j {
					g.MustAddEdge(base+i, base+j, w())
				}
			}
		}
	}
	for c := 0; c < cliques && cliques > 1; c++ {
		u := c*size + size - 1
		v := ((c + 1) % cliques) * size
		if u != v {
			g.MustAddEdge(u, v, w())
			g.MustAddEdge(v, u, w())
		}
	}
	g.Build()
	return g
}

// SparseRandomGeometric returns a random geometric graph: n points placed
// uniformly on the unit square, every pair within `radius` connected in
// both directions, out-degree capped at maxDeg. Neighbor search uses a
// radius-sized grid, so construction is O(n · expected degree), never
// O(n^2). The graph may be disconnected (callers handle components).
func SparseRandomGeometric(rng *rand.Rand, n int, radius float64, maxDeg int, lo, hi float64) *CSR {
	g := NewCSR(n)
	if n == 0 {
		return g
	}
	if radius <= 0 || radius > 1 {
		radius = 1
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	// Bucket points per grid cell; a point's neighbors lie in its 3x3
	// cell neighborhood.
	bucket := make([][]int, cells*cells)
	for i := 0; i < n; i++ {
		c := cellOf(ys[i])*cells + cellOf(xs[i])
		bucket[c] = append(bucket[c], i)
	}
	deg := make([]int, n)
	w := func() float64 { return lo + (hi-lo)*rng.Float64() }
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := cellOf(xs[i]), cellOf(ys[i])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				gx, gy := cx+dx, cy+dy
				if gx < 0 || gx >= cells || gy < 0 || gy >= cells {
					continue
				}
				for _, j := range bucket[gy*cells+gx] {
					if j <= i {
						continue // each unordered pair once, i < j
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy > r2 {
						continue
					}
					if deg[i] >= maxDeg || deg[j] >= maxDeg {
						continue
					}
					g.MustAddEdge(i, j, w())
					g.MustAddEdge(j, i, w())
					deg[i]++
					deg[j]++
				}
			}
		}
	}
	g.Build()
	return g
}

// SparseBoundedDegree returns a strongly connected graph with small
// bounded out-degree: a bidirectional ring plus random bidirectional
// chords, targeting `deg` edges per node (deg >= 2; the ring contributes
// 2). Weights are uniform in [lo, hi) per direction.
func SparseBoundedDegree(rng *rand.Rand, n, deg int, lo, hi float64) *CSR {
	g := NewCSR(n)
	if n == 0 {
		return g
	}
	w := func() float64 { return lo + (hi-lo)*rng.Float64() }
	for i := 0; i < n && n > 1; i++ {
		j := (i + 1) % n
		g.MustAddEdge(i, j, w())
		g.MustAddEdge(j, i, w())
	}
	for i := 0; i < n && deg > 2 && n > 3; i++ {
		for c := 0; c < (deg-2+1)/2; c++ {
			j := rng.Intn(n)
			if j == i || j == (i+1)%n || j == (i-1+n)%n {
				continue
			}
			g.MustAddEdge(i, j, w())
			g.MustAddEdge(j, i, w())
		}
	}
	g.Build()
	return g
}
