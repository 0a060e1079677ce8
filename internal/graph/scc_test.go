package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// components groups nodes by SCC id, each group ascending, groups ordered
// by their smallest node.
func components(compOf []int, nc int) [][]int {
	out := make([][]int, nc)
	for v, c := range compOf {
		out[c] = append(out[c], v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// sccBoth runs SCCCSR and SCCDense on the same edge set and fails the test
// unless they label every node identically.
func sccBoth(t *testing.T, n int, edges [][2]int) []int {
	t.Helper()
	g := NewCSR(n)
	d := NewDense(n)
	d.Fill(Inf)
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], 1)
		d.Set(e[0], e[1], 1)
	}
	var sc, sd SCCScratch
	nc := SCCCSR(g, &sc)
	if nd := SCCDense(d, &sd); nd != nc || !reflect.DeepEqual(sc.CompOf, sd.CompOf) {
		t.Fatalf("SCCCSR %v (%d) vs SCCDense %v (%d)", sc.CompOf, nc, sd.CompOf, nd)
	}
	return sc.CompOf[:n:n]
}

func TestSCCTable(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  [][]int
	}{
		{
			name: "empty graph",
			n:    0,
			want: [][]int{},
		},
		{
			name: "singletons no edges",
			n:    3,
			want: [][]int{{0}, {1}, {2}},
		},
		{
			name:  "two cycle",
			n:     2,
			edges: [][2]int{{0, 1}, {1, 0}},
			want:  [][]int{{0, 1}},
		},
		{
			name:  "chain",
			n:     3,
			edges: [][2]int{{0, 1}, {1, 2}},
			want:  [][]int{{0}, {1}, {2}},
		},
		{
			name:  "two components",
			n:     5,
			edges: [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {1, 2}},
			want:  [][]int{{0, 1}, {2, 3, 4}},
		},
		{
			name:  "self loop",
			n:     2,
			edges: [][2]int{{0, 0}},
			want:  [][]int{{0}, {1}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			compOf := sccBoth(t, tt.n, tt.edges)
			nc := 0
			for _, c := range compOf {
				nc = max(nc, c+1)
			}
			if got := components(compOf, nc); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("components = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSCCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s SCCScratch
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		w := randomDense(rng, n, 0.25, 0, 1)
		nc := SCCDense(mustDense(t, w), &s)
		checkSCC(t, w, s.CompOf, nc)
		nc = SCCCSR(csrOf(w), &s)
		checkSCC(t, w, s.CompOf, nc)
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// 0 -> 1 -> 2 (three singleton components): Tarjan must complete a
	// component before any component that reaches it.
	pos := sccBoth(t, 3, [][2]int{{0, 1}, {1, 2}})
	if !(pos[2] < pos[1] && pos[1] < pos[0]) {
		t.Errorf("components not in reverse topological order: %v", pos)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	const n = 200000
	g := NewCSR(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	var s SCCScratch
	if got := SCCCSR(g, &s); got != n {
		t.Errorf("SCCCSR = %d components, want %d", got, n)
	}
}
