package sim

import (
	"fmt"
	"math/rand"
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
