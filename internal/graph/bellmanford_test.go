package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edge is a directed, weighted edge of a test graph.
type edge struct {
	from, to int
	weight   float64
}

// denseFromEdges returns the weight matrix of an edge list: +Inf absent,
// 0 diagonal, parallel edges and self-loops min-combined into their entry.
func denseFromEdges(n int, edges []edge) *Dense {
	d := NewDense(n)
	d.Fill(Inf)
	d.FillDiag(0)
	for _, e := range edges {
		if e.weight < d.At(e.from, e.to) {
			d.Set(e.from, e.to, e.weight)
		}
	}
	return d
}

// bellmanFord runs BellmanFordDense from src with fresh scratch.
func bellmanFord(w *Dense, src int) ([]float64, []int, error) {
	dist := make([]float64, w.N())
	parent := make([]int, w.N())
	err := BellmanFordDense(w, src, dist, parent)
	return dist, parent, err
}

// pathTo follows parent pointers back from v to the source.
func pathTo(parent []int, v int) []int {
	var rev []int
	for u := v; u != -1; u = parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func TestBellmanFordSimple(t *testing.T) {
	// 0 -> 1 (4), 0 -> 2 (1), 2 -> 1 (2), 1 -> 3 (1)
	w := denseFromEdges(5, []edge{{0, 1, 4}, {0, 2, 1}, {2, 1, 2}, {1, 3, 1}})
	dist, parent, err := bellmanFord(w, 0)
	if err != nil {
		t.Fatalf("BellmanFordDense: %v", err)
	}
	want := []float64{0, 3, 1, 4, math.Inf(1)}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %v, want %v", v, dist[v], d)
		}
	}
	if got := pathTo(parent, 3); !reflect.DeepEqual(got, []int{0, 2, 1, 3}) {
		t.Errorf("path to 3 = %v, want [0 2 1 3]", got)
	}
	if parent[4] != -1 {
		t.Errorf("parent of unreachable node = %d, want -1", parent[4])
	}
}

func TestBellmanFordNegativeEdges(t *testing.T) {
	w := denseFromEdges(4, []edge{{0, 1, 5}, {1, 2, -3}, {0, 2, 4}, {2, 3, 2}})
	dist, _, err := bellmanFord(w, 0)
	if err != nil {
		t.Fatalf("BellmanFordDense: %v", err)
	}
	if dist[2] != 2 {
		t.Errorf("dist[2] = %v, want 2 (via negative edge)", dist[2])
	}
	if dist[3] != 4 {
		t.Errorf("dist[3] = %v, want 4", dist[3])
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	// 1 -> 2 -> 1 has weight -1.
	w := denseFromEdges(3, []edge{{0, 1, 1}, {1, 2, -2}, {2, 1, 1}})
	if _, _, err := bellmanFord(w, 0); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("BellmanFordDense error = %v, want ErrNegativeCycle", err)
	}
}

func TestBellmanFordUnreachableNegativeCycleOK(t *testing.T) {
	// Negative cycle 2 <-> 3 is unreachable from 0.
	w := denseFromEdges(4, []edge{{0, 1, 1}, {2, 3, -5}, {3, 2, 1}})
	dist, _, err := bellmanFord(w, 0)
	if err != nil {
		t.Fatalf("BellmanFordDense with unreachable negative cycle: %v", err)
	}
	if dist[1] != 1 {
		t.Errorf("dist[1] = %v, want 1", dist[1])
	}
}

func TestBellmanFordBadSource(t *testing.T) {
	if _, _, err := bellmanFord(NewDense(2), 5); err == nil {
		t.Error("BellmanFordDense(out-of-range source) error = nil, want non-nil")
	}
}

// TestHasNegativeCycle: FloydWarshallDense detects a negative cycle
// anywhere in the graph, including a negative self-loop.
func TestHasNegativeCycle(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []edge
		want  bool
	}{
		{name: "empty", n: 0},
		{name: "positive cycle", n: 2, edges: []edge{{0, 1, 1}, {1, 0, 1}}},
		{name: "zero cycle", n: 2, edges: []edge{{0, 1, 3}, {1, 0, -3}}},
		{name: "negative cycle", n: 2, edges: []edge{{0, 1, 3}, {1, 0, -3.5}}, want: true},
		{name: "negative self loop", n: 1, edges: []edge{{0, 0, -0.1}}, want: true},
		{
			name:  "negative cycle in second component",
			n:     4,
			edges: []edge{{0, 1, 1}, {2, 3, -1}, {3, 2, 0.5}},
			want:  true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := FloydWarshallDense(denseFromEdges(tt.n, tt.edges), nil)
			if got := errors.Is(err, ErrNegativeCycle); got != tt.want {
				t.Errorf("negative cycle = %v (err %v), want %v", got, err, tt.want)
			}
		})
	}
}

// TestFindNegativeCycle: the nodes left with a negative diagonal after
// Floyd-Warshall are exactly the nodes on the negative cycle.
func TestFindNegativeCycle(t *testing.T) {
	// Cycle 1 -> 2 -> 3 -> 1 weighs -0.5; 0 and 4 hang off it.
	w := denseFromEdges(5, []edge{{0, 1, 2}, {1, 2, 3}, {2, 3, -4}, {3, 1, 0.5}, {3, 4, 10}})
	if _, _, err := bellmanFord(w, 0); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("BellmanFordDense error = %v, want ErrNegativeCycle", err)
	}
	if err := FloydWarshallDense(w, nil); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("FloydWarshallDense error = %v, want ErrNegativeCycle", err)
	}
	var onCycle []int
	for i := 0; i < 5; i++ {
		if w.At(i, i) < 0 {
			onCycle = append(onCycle, i)
		}
	}
	if !reflect.DeepEqual(onCycle, []int{1, 2, 3}) {
		t.Errorf("negative-diagonal nodes = %v, want [1 2 3]", onCycle)
	}
}

func TestFindNegativeCycleNone(t *testing.T) {
	w := denseFromEdges(3, []edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	if _, _, err := bellmanFord(w, 0); err != nil {
		t.Errorf("BellmanFordDense error = %v, want nil", err)
	}
	if err := FloydWarshallDense(w, nil); err != nil {
		t.Errorf("FloydWarshallDense error = %v, want nil", err)
	}
}

// TestBellmanFordMatchesFloydWarshall cross-checks the two shortest-path
// kernels on random graphs without negative cycles.
func TestBellmanFordMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		w := mustDense(t, randomDense(rng, n, 0.4, 0.1, 5)) // positive weights: no negative cycles
		ap := NewDense(n)
		ap.CopyFrom(w)
		if err := FloydWarshallDense(ap, nil); err != nil {
			t.Fatalf("trial %d: FloydWarshallDense: %v", trial, err)
		}
		for s := 0; s < n; s++ {
			dist, _, err := bellmanFord(w, s)
			if err != nil {
				t.Fatalf("trial %d: BellmanFordDense(%d): %v", trial, s, err)
			}
			for v := 0; v < n; v++ {
				if math.Abs(dist[v]-ap.At(s, v)) > 1e-9 && !(math.IsInf(dist[v], 1) && math.IsInf(ap.At(s, v), 1)) {
					t.Fatalf("trial %d: dist(%d,%d): BF=%v FW=%v", trial, s, v, dist[v], ap.At(s, v))
				}
			}
		}
	}
}
