package graph

import "math/rand"

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
