package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(3)
	if d.N() != 3 || len(d.Data()) != 9 {
		t.Fatalf("NewDense(3): n=%d len=%d", d.N(), len(d.Data()))
	}
	d.Fill(Inf)
	d.FillDiag(0)
	d.Set(0, 2, 1.5)
	if d.At(0, 2) != 1.5 || d.At(1, 1) != 0 || !math.IsInf(d.At(2, 0), 1) {
		t.Fatalf("At/Set mismatch: %v", d.Data())
	}
	rows := d.Rows()
	rows[2][0] = -4
	if d.At(2, 0) != -4 {
		t.Fatal("Rows must alias the backing array")
	}
	// Reset within capacity keeps the backing array.
	backing := &d.Data()[0]
	d.Reset(2)
	if &d.Data()[0] != backing {
		t.Fatal("Reset reallocated within capacity")
	}
	if d.N() != 2 {
		t.Fatalf("Reset(2): n=%d", d.N())
	}
}

func TestDenseSetRowsAndTranspose(t *testing.T) {
	w := [][]float64{{0, 1, 2}, {3, 0, 5}, {6, 7, 0}}
	d, err := DenseFromRows(w)
	if err != nil {
		t.Fatal(err)
	}
	var tr Dense
	d.TransposeInto(&tr)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(i, j) != w[j][i] {
				t.Fatalf("transpose (%d,%d): got %v want %v", i, j, tr.At(i, j), w[j][i])
			}
		}
	}
	if _, err := DenseFromRows([][]float64{{0, 1}, {2}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func poolsUnderTest(t *testing.T) []*Pool {
	t.Helper()
	p := NewPool(4)
	t.Cleanup(p.Close)
	return []*Pool{nil, p}
}

// TestFloydWarshallDenseMatchesClassic: the dense kernel is bit-identical
// to the textbook triple loop, for every pool size. The pool runs all its
// lanes: at these sizes fwMinLaneWork would keep the kernel inline.
func TestFloydWarshallDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pools := poolsUnderTest(t)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		w := randomDense(rng, n, 0.4, -0.3, 1.0)
		want, wantOK := refFloydWarshall(w)
		for _, pool := range pools {
			d := mustDense(t, w)
			gotErr := floydWarshallLanes(d, pool, pool.Lanes())
			if (gotErr == nil) != wantOK {
				t.Fatalf("n=%d lanes=%d: err %v, reference feasible %v", n, pool.Lanes(), gotErr, wantOK)
			}
			if !wantOK {
				continue
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := d.At(i, j); math.Float64bits(got) != math.Float64bits(want[i][j]) {
						t.Fatalf("n=%d lanes=%d: d[%d][%d] = %v, want %v (bit-identical)",
							n, pool.Lanes(), i, j, got, want[i][j])
					}
				}
			}
		}
	}
}

// TestBellmanFordDenseMatchesClassic: identical dist and parent vectors to
// the textbook row-major Bellman-Ford.
func TestBellmanFordDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		d := RandomStronglyConnected(rng, n, 0.3, 0.05, 1.0)
		d.FillDiag(Inf) // no self edges in the adjacency view
		dist := make([]float64, n)
		parent := make([]int, n)
		if err := BellmanFordDense(d, 0, dist, parent); err != nil {
			t.Fatal(err)
		}
		wantDist, wantParent, ok := refBellmanFord(d.Rows(), 0)
		if !ok {
			t.Fatal("reference found a negative cycle")
		}
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) {
				t.Fatalf("n=%d: dist[%d] = %v, want %v", n, v, dist[v], wantDist[v])
			}
			if parent[v] != wantParent[v] {
				t.Fatalf("n=%d: parent[%d] = %d, want %d", n, v, parent[v], wantParent[v])
			}
		}
	}
	// Negative cycle detection.
	neg := NewDense(2)
	neg.Fill(-1)
	neg.FillDiag(Inf)
	dist := make([]float64, 2)
	parent := make([]int, 2)
	if err := BellmanFordDense(neg, 0, dist, parent); err != ErrNegativeCycle {
		t.Fatalf("negative cycle: err = %v", err)
	}
	if err := BellmanFordDense(neg, 7, dist, parent); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestSCCDenseMatchesClassic: the partition is mutual reachability and
// the ids follow reverse topological order.
func TestSCCDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var scratch SCCScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		w := randomDense(rng, n, 0.1, 0, 1)
		nc := SCCDense(mustDense(t, w), &scratch)
		checkSCC(t, w, scratch.CompOf, nc)
	}
}

// TestMaxMeanCycleDenseMatchesClassic: on complete matrices (the
// pipeline's actual workload) the cycle mean matches simple-cycle
// enumeration within float tolerance, and the reported cycle achieves it.
// The pool runs all its lanes, below karpMinLaneWork, and must give the
// serial mean bit for bit.
func TestMaxMeanCycleDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var scratch KarpScratch
	pools := poolsUnderTest(t)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		w := randomDense(rng, n, 1, -0.5, 1.5)
		want, ok := refMaxMeanCycle(w)
		if !ok {
			t.Fatal("reference found no cycle")
		}
		var serial float64
		for _, pool := range pools {
			got, ok := maxMeanCycleLanes(mustDense(t, w), identity(n), &scratch, pool, pool.Lanes())
			if !ok {
				t.Fatalf("n=%d: dense found no cycle", n)
			}
			checkCycleMean(t, w, got, want)
			if pool == nil {
				serial = got.Mean
			} else if math.Float64bits(got.Mean) != math.Float64bits(serial) {
				t.Fatalf("n=%d lanes=%d: mean %v, serial %v", n, pool.Lanes(), got.Mean, serial)
			}
		}
	}
}

// TestMaxMeanCycleDenseSubset: non-trivial subsets, complete and with
// absent edges.
func TestMaxMeanCycleDenseSubset(t *testing.T) {
	var scratch KarpScratch
	d := NewDense(4)
	d.Fill(Inf)
	d.FillDiag(0)
	// Complete on {1, 3}; node 0 and 2 disconnected.
	d.Set(1, 3, 2)
	d.Set(3, 1, 4)
	mc, ok := MaxMeanCycleDense(d, []int{1, 3}, &scratch, nil)
	if !ok || math.Abs(mc.Mean-3) > 1e-12 {
		t.Fatalf("subset cycle: %+v ok=%v, want mean 3", mc, ok)
	}
	if len(mc.Cycle) != 3 || mc.Cycle[0] != mc.Cycle[len(mc.Cycle)-1] {
		t.Fatalf("subset cycle nodes: %v", mc.Cycle)
	}
	for _, v := range mc.Cycle {
		if v != 1 && v != 3 {
			t.Fatalf("cycle %v leaves the subset", mc.Cycle)
		}
	}
	// Split path: subset with a missing edge.
	mc, ok = MaxMeanCycleDense(d, []int{0, 1, 3}, &scratch, nil)
	if !ok || math.Abs(mc.Mean-3) > 1e-12 {
		t.Fatalf("split cycle: %+v ok=%v, want mean 3", mc, ok)
	}
	// Singletons and empty subsets carry no cycle.
	if _, ok := MaxMeanCycleDense(d, []int{2}, &scratch, nil); ok {
		t.Fatal("singleton subset reported a cycle")
	}
	if _, ok := MaxMeanCycleDense(d, nil, &scratch, nil); ok {
		t.Fatal("empty subset reported a cycle")
	}
}

// subsetRows returns w restricted to comp, in comp's local indices.
func subsetRows(w [][]float64, comp []int) [][]float64 {
	sub := NewMatrix(len(comp), Inf)
	for a, p := range comp {
		for b, q := range comp {
			sub[a][b] = w[p][q]
		}
	}
	return sub
}

// TestMaxMeanCycleDenseSplit: subsets with absent entries take the SCC
// split. Each case is checked against simple-cycle enumeration, and the
// cycle is checked in ms ids.
func TestMaxMeanCycleDenseSplit(t *testing.T) {
	// 0..1 mean 1, then 2 -> 3 -> 4 -> 2 mean 3, then 5..6 mean 3 again,
	// then 7..8 mean 2, joined one way along the order; node 9 is a sink.
	multi := denseFromEdges(10, []edge{
		{0, 1, 0.5}, {1, 0, 1.5}, {1, 2, 9},
		{2, 3, 1}, {3, 4, 5}, {4, 2, 3}, {4, 5, 9},
		{5, 6, 2}, {6, 5, 4}, {6, 7, 9},
		{7, 8, 2}, {8, 7, 2}, {8, 9, 9},
	}).Rows()
	// A chordless ring on 5 of 7 nodes, listed out of order.
	ring := NewMatrix(7, Inf)
	for i, p := range []int{6, 1, 4, 2, 0} {
		ring[p][[]int{6, 1, 4, 2, 0}[(i+1)%5]] = float64(i) - 1.5
	}
	for _, tt := range []struct {
		name   string
		w      [][]float64
		comp   []int
		wantOK bool
	}{
		{"chordless ring", ring, []int{6, 1, 4, 2, 0}, true},
		{"ring in a larger subset", ring, []int{0, 1, 2, 3, 4, 5, 6}, true},
		{"later component wins, with a tie", multi, identity(10), true},
		{"subset of components", multi, []int{9, 8, 7, 1, 0}, true},
		{"acyclic", multi, []int{1, 2, 4, 6, 8}, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			want, wantOK := refMaxMeanCycle(subsetRows(tt.w, tt.comp))
			if wantOK != tt.wantOK {
				t.Fatalf("reference ok = %v", wantOK)
			}
			var karp KarpScratch
			mc, ok := MaxMeanCycleDense(mustDense(t, tt.w), tt.comp, &karp, nil)
			if ok != wantOK {
				t.Fatalf("ok = %v, reference %v", ok, wantOK)
			}
			if ok {
				checkCycleMean(t, tt.w, mc, want)
			}
		})
	}
}

// TestMaxMeanCycleDenseSplitAllocs: the SCC split allocates nothing on
// warm scratch.
func TestMaxMeanCycleDenseSplitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := randomDense(rng, 24, 0.08, -1, 2)
	d := mustDense(t, w)
	comp := identity(24)
	var scc SCCScratch
	if nc := SCCDense(d, &scc); nc < 2 {
		t.Fatalf("%d components, want a split", nc)
	}
	var karp KarpScratch
	MaxMeanCycleDense(d, comp, &karp, nil)
	if allocs := testing.AllocsPerRun(20, func() { MaxMeanCycleDense(d, comp, &karp, nil) }); allocs != 0 {
		t.Fatalf("%v allocs per call, want 0", allocs)
	}
}

func TestPoolRunAndBarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Lanes() != 4 {
		t.Fatalf("Lanes = %d", p.Lanes())
	}
	var nilPool *Pool
	if nilPool.Lanes() != 1 {
		t.Fatalf("nil pool Lanes = %d", nilPool.Lanes())
	}
	nilPool.Close() // must not panic

	// All parts run; barrier keeps phases aligned.
	const parts, rounds = 4, 50
	counts := make([]int, parts)
	bar := NewBarrier(parts)
	p.Run(parts, func(part int) {
		for r := 0; r < rounds; r++ {
			counts[part]++
			bar.Wait()
		}
	})
	for part, c := range counts {
		if c != rounds {
			t.Fatalf("part %d ran %d rounds, want %d", part, c, rounds)
		}
	}
	// Serial inline path.
	ran := 0
	nilPool.Run(3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d parts", ran)
	}
	if NewPool(1) != nil {
		t.Fatal("single-lane pool should be nil")
	}
}
