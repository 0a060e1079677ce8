package graph

import (
	"errors"
	"math"
	"testing"
)

// allPairs runs FloydWarshallDense on the weight matrix of edges.
func allPairs(n int, edges []edge) (*Dense, error) {
	d := denseFromEdges(n, edges)
	return d, FloydWarshallDense(d, nil)
}

func TestAllPairsSmall(t *testing.T) {
	d, err := allPairs(3, []edge{{0, 1, 4}, {1, 2, -2}, {0, 2, 5}})
	if err != nil {
		t.Fatalf("FloydWarshallDense: %v", err)
	}
	if d.At(0, 2) != 2 {
		t.Errorf("d[0][2] = %v, want 2", d.At(0, 2))
	}
	if !math.IsInf(d.At(2, 0), 1) {
		t.Errorf("d[2][0] = %v, want +Inf", d.At(2, 0))
	}
	if d.At(1, 1) != 0 {
		t.Errorf("d[1][1] = %v, want 0", d.At(1, 1))
	}
}

func TestAllPairsNegativeCycle(t *testing.T) {
	if _, err := allPairs(2, []edge{{0, 1, 1}, {1, 0, -2}}); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("FloydWarshallDense error = %v, want ErrNegativeCycle", err)
	}
}

func TestFloydWarshallZeroCycleStaysZero(t *testing.T) {
	// A zero-weight cycle must not be flagged and must keep a zero diagonal.
	d, err := allPairs(3, []edge{{0, 1, 2}, {1, 2, -1}, {2, 0, -1}})
	if err != nil {
		t.Fatalf("FloydWarshallDense: %v", err)
	}
	for i := 0; i < 3; i++ {
		if d.At(i, i) != 0 {
			t.Errorf("d[%d][%d] = %v, want 0", i, i, d.At(i, i))
		}
	}
}

func TestFloydWarshallTriangleInequality(t *testing.T) {
	d, err := allPairs(6, []edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}, {0, 5, 100}})
	if err != nil {
		t.Fatalf("FloydWarshallDense: %v", err)
	}
	if d.At(0, 5) != 5 {
		t.Errorf("d[0][5] = %v, want 5", d.At(0, 5))
	}
	n := d.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if d.At(i, j) > d.At(i, k)+d.At(k, j)+1e-9 {
					t.Fatalf("triangle inequality violated: d[%d][%d]=%v > d[%d][%d]+d[%d][%d]=%v",
						i, j, d.At(i, j), i, k, k, j, d.At(i, k)+d.At(k, j))
				}
			}
		}
	}
}

func TestFloydWarshallEmpty(t *testing.T) {
	if err := FloydWarshallDense(NewDense(0), nil); err != nil {
		t.Errorf("FloydWarshallDense(empty) = %v, want nil", err)
	}
}
