package sim

import (
	"fmt"
	"math/rand"

	"clocksync/internal/graph"
)

// Pair is an unordered link between two processors.
type Pair struct {
	P, Q int
}

// Line returns the path topology p0 - p1 - ... - p(n-1).
func Line(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n-1)
	for i := 0; i+1 < n; i++ {
		out = append(out, Pair{i, i + 1})
	}
	return out
}

// Ring returns the cycle topology on n processors. For n == 2 it
// degenerates to a single link.
func Ring(n int) []Pair {
	if n < 2 {
		return nil
	}
	if n == 2 {
		return []Pair{{0, 1}}
	}
	out := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Pair{i, (i + 1) % n})
	}
	return out
}

// Star returns the star with center 0.
func Star(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, Pair{0, i})
	}
	return out
}

// Complete returns the complete graph on n processors.
func Complete(n int) []Pair {
	var out []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{i, j})
		}
	}
	return out
}

// Grid returns the w x h grid (processors numbered row-major).
func Grid(w, h int) []Pair {
	var out []Pair
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				out = append(out, Pair{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				out = append(out, Pair{id(x, y), id(x, y+1)})
			}
		}
	}
	return out
}

// Torus returns the w x h torus (grid with wraparound); w, h >= 3 keeps
// links simple (no parallel wrap links).
func Torus(w, h int) []Pair {
	var out []Pair
	id := func(x, y int) int { return (y%h)*w + (x % w) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out = append(out, Pair{id(x, y), id(x+1, y)})
			out = append(out, Pair{id(x, y), id(x, y+1)})
		}
	}
	return DedupePairs(out)
}

// Tree returns a complete b-ary tree on n processors (node i's parent is
// (i-1)/b).
func Tree(n, b int) []Pair {
	if n < 2 || b < 1 {
		return nil
	}
	out := make([]Pair, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, Pair{(i - 1) / b, i})
	}
	return out
}

// Hypercube returns the d-dimensional hypercube on 2^d processors.
func Hypercube(d int) []Pair {
	n := 1 << d
	var out []Pair
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				out = append(out, Pair{v, u})
			}
		}
	}
	return out
}

// RandomConnected returns a connected random topology: a random spanning
// tree plus each remaining pair independently with probability p.
func RandomConnected(rng *rand.Rand, n int, p float64) []Pair {
	if n < 2 {
		return nil
	}
	perm := rng.Perm(n)
	var out []Pair
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node in the permutation.
		j := rng.Intn(i)
		out = append(out, orderPair(perm[i], perm[j]))
	}
	have := make(map[Pair]bool, len(out))
	for _, e := range out {
		have[e] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e := Pair{i, j}
			if !have[e] && rng.Float64() < p {
				out = append(out, e)
				have[e] = true
			}
		}
	}
	return out
}

// RingOfCliques returns cliques complete blocks of size processors each
// (block c holds c*size .. c*size+size-1), node 0 of each block linked to
// node 0 of the next: per block its internal pairs, then the bridge
// (base, next base). Two cliques get one bridge and one clique none. It
// is the clustered shape the hierarchical solver partitions best.
func RingOfCliques(cliques, size int) []Pair {
	var out []Pair
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				out = append(out, Pair{base + i, base + j})
			}
		}
		if cliques > 2 || (cliques == 2 && c == 0) {
			out = append(out, Pair{base, (c + 1) % cliques * size})
		}
	}
	return out
}

// Barbell returns two k-cliques, on processors 0..k-1 and n-k..n-1,
// joined by the path k-1, k, ..., n-k: the largest diameter for its
// clique sizes.
func Barbell(n, k int) []Pair {
	var out []Pair
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out = append(out, Pair{i, j}, Pair{n - 1 - i, n - 1 - j})
		}
	}
	for i := k - 1; i < n-k; i++ {
		out = append(out, Pair{i, i + 1})
	}
	return DedupePairs(out)
}

// TwoRings returns a ring on processors 0..k-1 and a ring on k..n-1: two
// components.
func TwoRings(n, k int) []Pair {
	out := Ring(k)
	for _, e := range Ring(n - k) {
		out = append(out, Pair{e.P + k, e.Q + k})
	}
	return DedupePairs(out)
}

// ChordRing returns the ring on n processors plus up to chords random
// chords, each between two uniform endpoints and dropped when they are
// equal or adjacent on the ring: bounded degree with no cluster
// structure, the worst case for partitioning. A ring of fewer than four
// has no room for a chord.
func ChordRing(rng *rand.Rand, n, chords int) []Pair {
	out := Ring(n)
	for c := 0; c < chords && n >= 4; c++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j || (i+1)%n == j || (j+1)%n == i {
			continue
		}
		out = append(out, orderPair(i, j))
	}
	return DedupePairs(out)
}

// RandomGeometric places n points uniformly on the unit square (radius
// outside (0, 1] reads as 1) and links every pair within radius, each
// processor to at most maxDeg others. Neighbours are searched in a
// radius-sized grid, so it takes O(n · degree), never O(n^2). The graph
// may be disconnected.
func RandomGeometric(rng *rand.Rand, n int, radius float64, maxDeg int) []Pair {
	if n == 0 {
		return nil
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
	cells := max(int(1/radius), 1)
	cellOf := func(x float64) int { return min(int(x*float64(cells)), cells-1) }
	// A point's neighbours lie in its 3x3 cell neighbourhood.
	bucket := make([][]int, cells*cells)
	for i := 0; i < n; i++ {
		c := cellOf(ys[i])*cells + cellOf(xs[i])
		bucket[c] = append(bucket[c], i)
	}
	deg := make([]int, n)
	r2 := radius * radius
	var out []Pair
	for i := 0; i < n; i++ {
		cx, cy := cellOf(xs[i]), cellOf(ys[i])
		for gy := max(cy-1, 0); gy <= min(cy+1, cells-1); gy++ {
			for gx := max(cx-1, 0); gx <= min(cx+1, cells-1); gx++ {
				for _, j := range bucket[gy*cells+gx] {
					dx, dy := xs[i]-xs[j], ys[i]-ys[j]
					if j <= i || dx*dx+dy*dy > r2 || deg[i] >= maxDeg || deg[j] >= maxDeg {
						continue
					}
					out = append(out, Pair{i, j})
					deg[i]++
					deg[j]++
				}
			}
		}
	}
	return out
}

// WeightedCSR returns the built graph on n nodes with both directions of
// every pair, weights uniform in [lo, hi): per pair, in list order, it
// draws w(P→Q) and then w(Q→P). With lo >= 0 the graph has no negative
// cycle.
func WeightedCSR(rng *rand.Rand, n int, pairs []Pair, lo, hi float64) *graph.CSR {
	g := graph.NewCSR(n)
	for _, e := range pairs {
		g.MustAddEdge(e.P, e.Q, lo+(hi-lo)*rng.Float64())
		g.MustAddEdge(e.Q, e.P, lo+(hi-lo)*rng.Float64())
	}
	g.Build()
	return g
}

// Validate checks that the pairs are in range, non-loop and non-duplicate.
func Validate(n int, pairs []Pair) error {
	seen := make(map[Pair]bool, len(pairs))
	for _, e := range pairs {
		if e.P < 0 || e.P >= n || e.Q < 0 || e.Q >= n {
			return fmt.Errorf("sim: link (%d,%d) out of range [0,%d)", e.P, e.Q, n)
		}
		if e.P == e.Q {
			return fmt.Errorf("sim: self link at %d", e.P)
		}
		c := orderPair(e.P, e.Q)
		if seen[c] {
			return fmt.Errorf("sim: duplicate link (%d,%d)", e.P, e.Q)
		}
		seen[c] = true
	}
	return nil
}

func orderPair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// DedupePairs orders each pair (P < Q), drops self-loops and duplicates,
// and keeps first occurrences in input order. It reuses in's backing
// array.
func DedupePairs(in []Pair) []Pair {
	seen := make(map[Pair]bool, len(in))
	out := in[:0]
	for _, e := range in {
		c := orderPair(e.P, e.Q)
		if c.P == c.Q || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
