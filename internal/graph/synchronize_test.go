package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/graph"
)

// TestSynchronizeVectorMatchesGo runs whole dense solves on the Go loops
// and at each vector kernel level and requires identical bits in every
// output.
func TestSynchronizeVectorMatchesGo(t *testing.T) {
	graph.ForVectorLevels(t, func(t *testing.T, level string) {
		for _, tc := range []struct {
			n       int
			density float64
		}{{8, 1}, {32, 0.15}, {128, 1}} {
			mls := randomShiftBounds(rand.New(rand.NewSource(int64(tc.n))), tc.n, tc.density)
			for _, centered := range []bool{false, true} {
				opts := core.Options{Centered: centered}
				var want, got *core.Result
				var errW, errG error
				graph.AtKernelLevel("go", func() { want, errW = core.Synchronize(mls, opts) })
				graph.AtKernelLevel(level, func() { got, errG = core.Synchronize(mls, opts) })
				if errW != nil || errG != nil {
					t.Fatalf("n=%d: errors %v (Go) / %v (%s)", tc.n, errW, errG, level)
				}
				same := sameBits(got.Corrections, want.Corrections) &&
					sameBits([]float64{got.Precision}, []float64{want.Precision}) &&
					sameBits(got.ComponentPrecision, want.ComponentPrecision) &&
					slices.Equal(got.CriticalCycle, want.CriticalCycle) &&
					len(got.Components) == len(want.Components)
				for i := range got.MS {
					same = same && sameBits(got.MS[i], want.MS[i])
				}
				if !same {
					t.Fatalf("n=%d centered=%v: %s result differs from the Go loops", tc.n, centered, level)
				}
			}
		}
	})
}

// randomShiftBounds returns a feasible m~ls matrix: hidden offsets x and
// bounds x[q]-x[p]+slack on a random subset of pairs, so every cycle has
// a nonnegative sum.
func randomShiftBounds(rng *rand.Rand, n int, density float64) [][]float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	mls := graph.NewMatrix(n, graph.Inf)
	for p := range mls {
		mls[p][p] = 0
		for q := range mls[p] {
			if p != q && rng.Float64() < density {
				mls[p][q] = x[q] - x[p] + rng.Float64()
			}
		}
	}
	return mls
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
