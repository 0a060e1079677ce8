package graph

import (
	"math/rand"
	"testing"
)

func TestMaxMeanCycleTable(t *testing.T) {
	tests := []struct {
		name   string
		n      int
		edges  []edge
		want   float64
		wantOK bool
	}{
		{
			name:   "acyclic",
			n:      3,
			edges:  []edge{{0, 1, 5}, {1, 2, 5}},
			wantOK: false,
		},
		{
			name:   "single two cycle",
			n:      2,
			edges:  []edge{{0, 1, 3}, {1, 0, 1}},
			want:   2,
			wantOK: true,
		},
		{
			// The complete-digraph view has no self-loops.
			name:   "self loop ignored",
			n:      2,
			edges:  []edge{{0, 1, 1}, {1, 0, 1}, {0, 0, 5}},
			want:   1,
			wantOK: true,
		},
		{
			name: "choose heavier of two cycles",
			n:    4,
			edges: []edge{
				{0, 1, 1}, {1, 0, 1}, // mean 1
				{2, 3, 4}, {3, 2, 2}, // mean 3
			},
			want:   3,
			wantOK: true,
		},
		{
			name: "long cycle vs short cycle",
			n:    4,
			edges: []edge{
				{0, 1, 10}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}, // mean 2.5
				{1, 0, -4}, // cycle 0-1-0 mean 3
			},
			want:   3,
			wantOK: true,
		},
		{
			name:   "negative means",
			n:      2,
			edges:  []edge{{0, 1, -3}, {1, 0, -1}},
			want:   -2,
			wantOK: true,
		},
		{
			name:   "zero mean cycle",
			n:      3,
			edges:  []edge{{0, 1, 1}, {1, 2, -2}, {2, 0, 1}},
			want:   0,
			wantOK: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := denseFromEdges(tt.n, tt.edges)
			var karp KarpScratch
			mc, ok := MaxMeanCycleDense(w, identity(tt.n), &karp, nil)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok {
				checkCycleMean(t, w.Rows(), mc, tt.want)
			}
		})
	}
}

func TestMaxMeanCycleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var karp KarpScratch
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		w := randomDense(rng, n, 0.45, -4, 4)
		want, wantOK := refMaxMeanCycle(w)
		mc, ok := MaxMeanCycleDense(mustDense(t, w), identity(n), &karp, nil)
		if ok != wantOK {
			t.Fatalf("trial %d: dense ok = %v, brute = %v", trial, ok, wantOK)
		}
		if ok {
			checkCycleMean(t, w, mc, want)
		}
	}
}

// TestMaxMeanCycleMatrix: a matrix with absent entries takes the SCC split
// of MaxMeanCycleDense.
func TestMaxMeanCycleMatrix(t *testing.T) {
	w := NewMatrix(3, Inf)
	w[0][1] = 2
	w[1][0] = 4
	w[1][2] = 1
	var karp KarpScratch
	mc, ok := MaxMeanCycleDense(mustDense(t, w), identity(3), &karp, nil)
	if !ok {
		t.Fatal("ok = false, want true")
	}
	if mc.Mean != 3 {
		t.Errorf("Mean = %v, want 3", mc.Mean)
	}
}

func TestMaxMeanCycleEmptyAndSingle(t *testing.T) {
	var karp KarpScratch
	if _, ok := MaxMeanCycleDense(NewDense(0), nil, &karp, nil); ok {
		t.Error("empty graph reported a cycle")
	}
	if _, ok := MaxMeanCycleDense(NewDense(1), identity(1), &karp, nil); ok {
		t.Error("single node reported a cycle")
	}
}

func TestRandomStronglyConnectedIsSC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s SCCScratch
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		d := RandomStronglyConnected(rng, n, 0.1, 0, 1)
		if nc := SCCDense(d, &s); nc != 1 {
			t.Fatalf("trial %d: %d components, want 1", trial, nc)
		}
	}
}
