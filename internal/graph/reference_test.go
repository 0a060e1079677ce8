package graph

import (
	"math"
	"math/rand"
	"testing"
)

// Deliberately naive textbook kernels on [][]float64 (+Inf absent). They
// share no code with the optimised kernels, so the tests below check the
// Dense and CSR kernels against an independent statement of each
// algorithm.

// refFloydWarshall is the classic triple loop on a copy of w (diagonal 0).
// Like FloydWarshallDense it snaps negative diagonal dust within the
// relative tolerance 1e-9 to 0, and reports a negative cycle otherwise.
func refFloydWarshall(w [][]float64) ([][]float64, bool) {
	n := len(w)
	d := CloneMatrix(w)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if d[i][i] < -1e-9*(1+math.Abs(d[i][i])) {
			return nil, false
		}
		if d[i][i] < 0 {
			d[i][i] = 0
		}
	}
	return d, true
}

// refBellmanFord relaxes every edge in row-major order n-1 times from src,
// then reports a negative cycle if any edge still relaxes. The diagonal is
// ignored.
func refBellmanFord(w [][]float64, src int) (dist []float64, parent []int, ok bool) {
	n := len(w)
	dist = make([]float64, n)
	parent = make([]int, n)
	for v := range dist {
		dist[v] = math.Inf(1)
		parent[v] = -1
	}
	dist[src] = 0
	relax := func(update bool) bool {
		relaxed := false
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || math.IsInf(dist[u], 1) || math.IsInf(w[u][v], 1) {
					continue
				}
				if dist[u]+w[u][v] < dist[v] {
					relaxed = true
					if update {
						dist[v] = dist[u] + w[u][v]
						parent[v] = u
					}
				}
			}
		}
		return relaxed
	}
	for pass := 0; pass < n-1; pass++ {
		relax(true)
	}
	return dist, parent, !relax(false)
}

// refReach is reachability by Warshall's transitive closure: reach[u][v]
// reports a path of zero or more edges from u to v.
func refReach(w [][]float64) [][]bool {
	n := len(w)
	reach := make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		for v := range reach[u] {
			reach[u][v] = u == v || !math.IsInf(w[u][v], 1)
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				reach[u][v] = reach[u][v] || reach[u][k] && reach[k][v]
			}
		}
	}
	return reach
}

// checkSCC checks an SCC labelling against mutual reachability: two nodes
// share a label iff each reaches the other, and a node that reaches
// another component carries a larger label (Tarjan completion order is
// reverse topological order).
func checkSCC(t *testing.T, w [][]float64, compOf []int, nc int) {
	t.Helper()
	reach := refReach(w)
	seen := make(map[int]bool)
	for u := range w {
		seen[compOf[u]] = true
		for v := range w {
			mutual := reach[u][v] && reach[v][u]
			if (compOf[u] == compOf[v]) != mutual {
				t.Fatalf("nodes %d,%d: labels %d,%d, mutually reachable %v", u, v, compOf[u], compOf[v], mutual)
			}
			if reach[u][v] && !mutual && compOf[u] < compOf[v] {
				t.Fatalf("%d reaches %d but label %d < %d: not reverse topological", u, v, compOf[u], compOf[v])
			}
		}
	}
	if len(seen) != nc {
		t.Fatalf("%d labels used, %d components reported", len(seen), nc)
	}
}

// refMaxMeanCycle enumerates every simple cycle of w (diagonal ignored, as
// in the complete-digraph view) from its smallest node and returns the
// largest mean. Exponential: n <= 8 only.
func refMaxMeanCycle(w [][]float64) (float64, bool) {
	n := len(w)
	best, found := math.Inf(-1), false
	onPath := make([]bool, n)
	var dfs func(start, v, edges int, weight float64)
	dfs = func(start, v, edges int, weight float64) {
		for x := start; x < n; x++ {
			if x == v || math.IsInf(w[v][x], 1) {
				continue
			}
			if x == start {
				best, found = math.Max(best, (weight+w[v][x])/float64(edges+1)), true
			} else if !onPath[x] {
				onPath[x] = true
				dfs(start, x, edges+1, weight+w[v][x])
				onPath[x] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		onPath[s] = true
		dfs(s, s, 0, 0)
		onPath[s] = false
	}
	return best, found
}

// checkCycleMean checks that mc.Mean is want and that mc.Cycle is a closed
// walk over finite off-diagonal entries of w with that mean, both within
// 1e-9 relative.
func checkCycleMean(t *testing.T, w [][]float64, mc MeanCycle, want float64) {
	t.Helper()
	if !closeRel(mc.Mean, want) {
		t.Fatalf("mean %v, want %v", mc.Mean, want)
	}
	c := mc.Cycle
	if len(c) < 2 || c[0] != c[len(c)-1] {
		t.Fatalf("malformed cycle %v", c)
	}
	total := 0.0
	for i := 0; i+1 < len(c); i++ {
		x := w[c[i]][c[i+1]]
		if c[i] == c[i+1] || math.IsInf(x, 1) {
			t.Fatalf("cycle %v uses missing edge %d->%d", c, c[i], c[i+1])
		}
		total += x
	}
	if mean := total / float64(len(c)-1); !closeRel(mean, mc.Mean) {
		t.Fatalf("cycle %v has mean %v, reported %v", c, mean, mc.Mean)
	}
}

func closeRel(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// randomDense returns an n×n matrix whose off-diagonal entries carry an
// edge with probability p, weight uniform in [lo, hi); +Inf absent, 0
// diagonal.
func randomDense(rng *rand.Rand, n int, p, lo, hi float64) [][]float64 {
	w := NewMatrix(n, Inf)
	for i := 0; i < n; i++ {
		w[i][i] = 0
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= p {
				continue
			}
			w[i][j] = lo + (hi-lo)*rng.Float64()
		}
	}
	return w
}

// csrOf compiles the finite off-diagonal entries of w into a CSR.
func csrOf(w [][]float64) *CSR {
	g := NewCSR(len(w))
	for u, row := range w {
		for v, x := range row {
			g.MustAddEdge(u, v, x)
		}
	}
	g.Build()
	return g
}

func mustDense(t testing.TB, w [][]float64) *Dense {
	t.Helper()
	d, err := DenseFromRows(w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func identity(n int) []int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	return comp
}

// fuzzWeights decodes a weight matrix of 2 <= n <= 8 nodes from fuzz
// bytes (nil for empty input): the first byte picks n, then one byte per
// off-diagonal entry in row-major order gives a multiple of 1/8 in
// [-2, 6), so every path sum is exact, or +Inf for a quarter of the byte
// values and for entries past the end of the input. The diagonal is 0.
func fuzzWeights(data []byte) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%7
	data = data[1:]
	w := NewMatrix(n, Inf)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				w[i][j] = 0
				continue
			}
			if k := i*n + j; k < len(data) && data[k] < 192 {
				w[i][j] = float64(int(data[k]%64)-16) / 8
			}
		}
	}
	return w
}

// addFuzzSeeds adds the seed corpus shared by the fuzzWeights targets.
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 20, 200, 0})
	f.Add([]byte{3, 0, 9, 250, 40, 0, 17, 0, 3, 0, 99, 0, 7, 1, 2, 3, 0})
	f.Add([]byte{6, 5, 200, 13, 37, 201, 90, 255, 18, 44, 3, 71, 8, 30, 220, 65, 12})
	f.Add([]byte{0, 0, 40, 50}) // one 2-cycle of mean 3.625
	// Two 2-cycles of means 1 and 3 joined one way by 1 -> 2 (weight -1).
	f.Add([]byte{2, 255, 24, 255, 255, 24, 255, 8, 255, 255, 255, 255, 40, 255, 255, 40, 255})
	// The chordless ring 0 -> 1 -> 2 -> 0 with a pendant 2 -> 3.
	f.Add([]byte{2, 255, 20, 255, 255, 255, 255, 28, 255, 12, 255, 255, 30, 255, 255, 255, 255})
}

// FuzzDenseKernels decodes a matrix with fuzzWeights and checks every
// production kernel against the references: Floyd-Warshall bitwise,
// maximum mean cycles within 1e-9 with a cycle achieving the mean, on the
// raw matrix and on each closure component, and SCC partitions. It also
// runs the kernels at every vector level the CPU has and requires the
// bits of the Go loops (runDenseKernels).
func FuzzDenseKernels(f *testing.F) {
	addFuzzSeeds(f)
	levels := vectorLevels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWeights(data)
		if w == nil {
			return
		}
		n := len(w)

		var goOut denseOutputs
		var lk KarpScratch
		AtKernelLevel("go", func() { goOut = runDenseKernels(t, w, int64(len(data)), &lk) })
		for _, level := range levels {
			var got denseOutputs
			AtKernelLevel(level, func() { got = runDenseKernels(t, w, int64(len(data)), &lk) })
			if d := got.diff(goOut); d != "" {
				t.Fatalf("%s: %s", level, d)
			}
		}

		var scc SCCScratch
		nc := SCCDense(mustDense(t, w), &scc)
		checkSCC(t, w, scc.CompOf, nc)
		nc = SCCCSR(csrOf(w), &scc)
		checkSCC(t, w, scc.CompOf, nc)

		// The raw matrix is rarely complete, so this drives the SCC split.
		want, wantOK := refMaxMeanCycle(w)
		var karp KarpScratch
		mc, ok := MaxMeanCycleDense(mustDense(t, w), identity(n), &karp, nil)
		if ok != wantOK {
			t.Fatalf("MaxMeanCycleDense ok = %v, reference %v", ok, wantOK)
		}
		if ok {
			checkCycleMean(t, w, mc, want)
		}

		ref, refOK := refFloydWarshall(w)
		d := mustDense(t, w)
		if err := FloydWarshallDense(d, nil); (err == nil) != refOK {
			t.Fatalf("FloydWarshallDense err = %v, reference feasible %v", err, refOK)
		}
		if !refOK {
			return
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(d.At(i, j)) != math.Float64bits(ref[i][j]) {
					t.Fatalf("FloydWarshallDense[%d][%d] = %v, reference %v", i, j, d.At(i, j), ref[i][j])
				}
			}
		}
		// The fast path: Karp on each closure component, all entries finite.
		nc = SCCDense(d, &scc)
		for c := 0; c < nc; c++ {
			var comp []int
			for v := 0; v < n; v++ {
				if scc.CompOf[v] == c {
					comp = append(comp, v)
				}
			}
			if len(comp) < 2 {
				continue
			}
			sub := NewMatrix(n, Inf)
			for _, u := range comp {
				for _, v := range comp {
					sub[u][v] = ref[u][v]
				}
			}
			want, _ := refMaxMeanCycle(sub)
			mc, ok := MaxMeanCycleDense(d, comp, &karp, nil)
			if !ok {
				t.Fatalf("component %v: no cycle", comp)
			}
			checkCycleMean(t, sub, mc, want)
		}
	})
}

// FuzzMeanCycleBelow checks the certificate against the references on the
// closure of a fuzzWeights matrix, the input the hierarchical solver hands
// it. Soundness: whenever it certifies a bound lambda (swept over
// multiples of 1/16 in [-2, 7]), Karp on every closure component returns
// a mean of at most lambda. Margin: it refuses the exact maximum mean
// cycle as the bound and accepts that mean plus 1/8 (any bound at all when
// the closure has no cycle).
func FuzzMeanCycleBelow(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWeights(data)
		if w == nil {
			return
		}
		ref, ok := refFloydWarshall(w)
		if !ok {
			return
		}
		n := len(ref)
		d := mustDense(t, ref)
		dist := make([]float64, n)

		var scc SCCScratch
		var karp KarpScratch
		nc := SCCDense(d, &scc)
		for k := -32; k <= 112; k++ {
			lambda := float64(k) / 16
			if !MeanCycleBelow(d, lambda, dist) {
				continue
			}
			for c := 0; c < nc; c++ {
				var comp []int
				for v := 0; v < n; v++ {
					if scc.CompOf[v] == c {
						comp = append(comp, v)
					}
				}
				if mc, ok := MaxMeanCycleDense(d, comp, &karp, nil); ok && mc.Mean > lambda {
					t.Fatalf("certified at %v, but component %v has mean %v", lambda, comp, mc.Mean)
				}
			}
		}

		mean, found := refMaxMeanCycle(ref)
		if !found {
			if !MeanCycleBelow(d, -2, dist) {
				t.Fatal("no cycle, yet not certified")
			}
			return
		}
		if MeanCycleBelow(d, mean, dist) {
			t.Fatalf("certified at the maximum mean %v itself", mean)
		}
		if !MeanCycleBelow(d, mean+0.125, dist) {
			t.Fatalf("not certified at the maximum mean %v plus 1/8", mean)
		}
	})
}
