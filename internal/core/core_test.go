package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"clocksync/internal/graph"
)

var inf = math.Inf(1)

func matrix(rows ...[]float64) [][]float64 { return rows }

func TestGlobalEstimatesShortcuts(t *testing.T) {
	// Line p0 - p1 - p2: global shift p0->p2 is the sum of local shifts.
	mls := matrix(
		[]float64{0, 1, inf},
		[]float64{2, 0, 3},
		[]float64{inf, 4, 0},
	)
	ms, err := GlobalEstimates(mls)
	if err != nil {
		t.Fatalf("GlobalEstimates: %v", err)
	}
	if ms[0][2] != 4 {
		t.Errorf("ms[0][2] = %v, want 4", ms[0][2])
	}
	if ms[2][0] != 6 {
		t.Errorf("ms[2][0] = %v, want 6", ms[2][0])
	}
	// Direct entries unchanged when no shortcut exists.
	if ms[0][1] != 1 || ms[1][0] != 2 {
		t.Errorf("ms adjacent = %v/%v, want 1/2", ms[0][1], ms[1][0])
	}
}

func TestGlobalEstimatesShortcutBeatsDirect(t *testing.T) {
	mls := matrix(
		[]float64{0, 10, 1},
		[]float64{1, 0, inf},
		[]float64{inf, 1, 0},
	)
	ms, err := GlobalEstimates(mls)
	if err != nil {
		t.Fatalf("GlobalEstimates: %v", err)
	}
	if ms[0][1] != 2 { // 0->2->1 = 1+1 beats direct 10
		t.Errorf("ms[0][1] = %v, want 2", ms[0][1])
	}
}

func TestGlobalEstimatesInfeasible(t *testing.T) {
	mls := matrix(
		[]float64{0, 1},
		[]float64{-2, 0},
	)
	if _, err := GlobalEstimates(mls); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestGlobalEstimatesValidation(t *testing.T) {
	tests := []struct {
		name string
		mls  [][]float64
	}{
		{name: "ragged", mls: [][]float64{{0, 1}, {0}}},
		{name: "nan", mls: matrix([]float64{0, math.NaN()}, []float64{1, 0})},
		{name: "neg inf", mls: matrix([]float64{0, math.Inf(-1)}, []float64{1, 0})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := GlobalEstimates(tt.mls); err == nil {
				t.Error("error = nil, want non-nil")
			}
		})
	}
}

func TestAMaxTwoProc(t *testing.T) {
	ms := matrix(
		[]float64{0, 3},
		[]float64{1, 0},
	)
	a, cycle := AMax(ms, []int{0, 1})
	if a != 2 {
		t.Errorf("AMax = %v, want 2", a)
	}
	if len(cycle) != 3 || cycle[0] != cycle[2] {
		t.Errorf("cycle = %v, want a closed 2-cycle", cycle)
	}
}

func TestAMaxSingleton(t *testing.T) {
	a, cycle := AMax(matrix([]float64{0}), []int{0})
	if a != 0 || cycle != nil {
		t.Errorf("AMax(singleton) = %v,%v; want 0,nil", a, cycle)
	}
}

func TestAMaxSubset(t *testing.T) {
	// Full matrix has a huge cycle through node 2; restricting to {0,1}
	// must ignore it.
	ms := matrix(
		[]float64{0, 1, 100},
		[]float64{1, 0, 100},
		[]float64{100, 100, 0},
	)
	a, _ := AMax(ms, []int{0, 1})
	if a != 1 {
		t.Errorf("AMax({0,1}) = %v, want 1", a)
	}
}

// TestAMaxTwoComponents: with +Inf between two components AMax takes the
// CSR fallback and must return the larger per-component maximum, exactly
// as the dense kernel reports it on each component alone.
func TestAMaxTwoComponents(t *testing.T) {
	ms := matrix(
		[]float64{0, 1, inf, inf, inf},
		[]float64{2, 0, inf, inf, inf},
		[]float64{inf, inf, 0, 3, 1},
		[]float64{inf, inf, 4, 0, 2},
		[]float64{inf, inf, 5, 0.5, 0},
	)
	d, err := graph.DenseFromRows(ms)
	if err != nil {
		t.Fatal(err)
	}
	var karp graph.KarpScratch
	want := math.Inf(-1)
	for _, comp := range [][]int{{0, 1}, {2, 3, 4}} {
		mc, ok := graph.MaxMeanCycleDense(d, comp, &karp, nil)
		if !ok {
			t.Fatalf("component %v: no cycle", comp)
		}
		want = math.Max(want, mc.Mean)
	}
	a, cycle := AMax(ms, []int{0, 1, 2, 3, 4})
	if a != want {
		t.Errorf("AMax = %v, want %v", a, want)
	}
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] || cycle[0] < 2 {
		t.Errorf("cycle = %v, want a closed cycle in {2,3,4}", cycle)
	}
}

// TestSynchronizeTwoProcClassic is the canonical sanity check: symmetric
// bounds [L,U], one message each way with symmetric delay D and skew sigma.
// m~ls values are computed by hand; the optimal precision is (U-L)/2 and
// the corrections recover the skew exactly.
func TestSynchronizeTwoProcClassic(t *testing.T) {
	const (
		L, U  = 1.0, 5.0
		D     = 3.0 // = (L+U)/2
		sigma = 0.7 // S_1 - S_0
	)
	// d~(0->1) = D - sigma, d~(1->0) = D + sigma.
	mls01 := math.Min(U-(D+sigma), (D-sigma)-L)
	mls10 := math.Min(U-(D-sigma), (D+sigma)-L)
	res, err := Synchronize(matrix(
		[]float64{0, mls01},
		[]float64{mls10, 0},
	), Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if want := (U - L) / 2; math.Abs(res.Precision-want) > 1e-12 {
		t.Errorf("Precision = %v, want %v", res.Precision, want)
	}
	if res.Corrections[0] != 0 {
		t.Errorf("root correction = %v, want 0", res.Corrections[0])
	}
	// With symmetric delays the corrections recover the skew: corrected
	// clocks coincide, so rho = 0.
	rho, err := Rho([]float64{0, sigma}, res.Corrections)
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	if math.Abs(rho) > 1e-12 {
		t.Errorf("rho = %v, want 0 (corrections %v)", rho, res.Corrections)
	}
}

// TestSynchronizeAsymmetricDelays: delays differ by delta; the best
// possible residual error is |delta|/2 against the true skew, and the
// reported precision is still (U-L)/2.
func TestSynchronizeAsymmetricDelays(t *testing.T) {
	const (
		L, U  = 0.0, 10.0
		d01   = 2.0
		d10   = 6.0
		sigma = -1.3
	)
	mls01 := math.Min(U-(d10+sigma), (d01-sigma)-L)
	mls10 := math.Min(U-(d01-sigma), (d10+sigma)-L)
	res, err := Synchronize(matrix(
		[]float64{0, mls01},
		[]float64{mls10, 0},
	), Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	rho, err := Rho([]float64{0, sigma}, res.Corrections)
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	if rho > res.Precision+1e-12 {
		t.Errorf("rho = %v exceeds precision %v", rho, res.Precision)
	}
	// The midpoint estimator error is |d01-d10|/2 = 2; rho should equal it.
	if want := math.Abs(d01-d10) / 2; math.Abs(rho-want) > 1e-9 {
		t.Errorf("rho = %v, want %v", rho, want)
	}
}

func TestSynchronizeComponents(t *testing.T) {
	// Two independent pairs: {0,1} and {2,3}; no constraints across.
	mls := matrix(
		[]float64{0, 1, inf, inf},
		[]float64{1, 0, inf, inf},
		[]float64{inf, inf, 0, 3},
		[]float64{inf, inf, 5, 0},
	)
	res, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if !math.IsInf(res.Precision, 1) {
		t.Errorf("Precision = %v, want +Inf", res.Precision)
	}
	want := [][]int{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(res.Components, want) {
		t.Fatalf("Components = %v, want %v", res.Components, want)
	}
	if res.ComponentPrecision[0] != 1 || res.ComponentPrecision[1] != 4 {
		t.Errorf("ComponentPrecision = %v, want [1 4]", res.ComponentPrecision)
	}
	// Per-component roots have zero correction.
	if res.Corrections[0] != 0 || res.Corrections[2] != 0 {
		t.Errorf("component root corrections = %v/%v, want 0/0", res.Corrections[0], res.Corrections[2])
	}
}

func TestSynchronizeOneWayConstraintIsNotEnough(t *testing.T) {
	// Finite m~s only from 0 to 1: cannot bound the discrepancy, so the
	// processors land in separate components.
	mls := matrix(
		[]float64{0, 1},
		[]float64{inf, 0},
	)
	res, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if !math.IsInf(res.Precision, 1) {
		t.Errorf("Precision = %v, want +Inf", res.Precision)
	}
	if len(res.Components) != 2 {
		t.Errorf("Components = %v, want two singletons", res.Components)
	}
}

func TestSynchronizeRootOption(t *testing.T) {
	mls := matrix(
		[]float64{0, 2},
		[]float64{2, 0},
	)
	res, err := Synchronize(mls, Options{Root: 1})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if res.Corrections[1] != 0 {
		t.Errorf("Corrections[1] = %v, want 0 (root)", res.Corrections[1])
	}
	if _, err := Synchronize(mls, Options{Root: 7}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := Synchronize(mls, Options{Root: -1}); err == nil {
		t.Error("negative root accepted")
	}
}

func TestSynchronizeEmptyAndSingle(t *testing.T) {
	res, err := Synchronize(nil, Options{})
	if err != nil {
		t.Fatalf("Synchronize(empty): %v", err)
	}
	if res.Precision != inf && res.Precision != 0 {
		// Zero processors: no components; precision reported as +Inf is
		// acceptable, but must not panic. Current contract: +Inf.
		t.Logf("empty precision = %v", res.Precision)
	}

	res1, err := Synchronize(matrix([]float64{0}), Options{})
	if err != nil {
		t.Fatalf("Synchronize(single): %v", err)
	}
	if res1.Precision != 0 {
		t.Errorf("single-processor precision = %v, want 0", res1.Precision)
	}
	if res1.Corrections[0] != 0 {
		t.Errorf("single-processor correction = %v, want 0", res1.Corrections[0])
	}
}

// TestSynchronizePrecisionDominatesCriticalCycle: the reported critical
// cycle's mean must equal the precision.
func TestSynchronizeCriticalCycle(t *testing.T) {
	mls := matrix(
		[]float64{0, 1, 4},
		[]float64{1, 0, 1},
		[]float64{4, 1, 0},
	)
	res, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if res.CriticalCycle == nil {
		t.Fatal("CriticalCycle = nil")
	}
	k := len(res.CriticalCycle) - 1
	total := 0.0
	for i := 0; i < k; i++ {
		total += res.MS[res.CriticalCycle[i]][res.CriticalCycle[i+1]]
	}
	if got := total / float64(k); math.Abs(got-res.Precision) > 1e-9 {
		t.Errorf("critical cycle mean = %v, precision = %v", got, res.Precision)
	}
}

// TestTriangleInequalityOfCorrections: Theorem 4.6's key step — for all
// pairs, f(q) - f(p) <= A_max - m~s(p,q).
func TestTriangleInequalityOfCorrections(t *testing.T) {
	mls := matrix(
		[]float64{0, 0.5, 3, inf},
		[]float64{2, 0, 1, 0.25},
		[]float64{1, 1, 0, 2},
		[]float64{inf, 4, 0.5, 0},
	)
	res, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	n := len(mls)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			lhs := res.Corrections[q] - res.Corrections[p]
			rhs := res.Precision - res.MS[p][q]
			if lhs > rhs+1e-9 {
				t.Errorf("pair (%d,%d): f(q)-f(p) = %v > A_max - ms = %v", p, q, lhs, rhs)
			}
		}
	}
}

func TestSynchronizeInfeasiblePropagates(t *testing.T) {
	mls := matrix(
		[]float64{0, -1},
		[]float64{-1, 0},
	)
	if _, err := Synchronize(mls, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestRhoErrors(t *testing.T) {
	if _, err := Rho([]float64{1, 2}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	rho, err := Rho([]float64{5, 3}, []float64{2, 0})
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	if rho != 0 {
		t.Errorf("Rho = %v, want 0", rho)
	}
}

func TestRhoOver(t *testing.T) {
	starts := []float64{0, 1, 2, 3}
	x := []float64{0, 0.5, 1.9, 3}
	if _, err := RhoOver(starts, x[:3], func(int) bool { return true }); err == nil {
		t.Error("length mismatch accepted")
	}
	for _, c := range []struct {
		keep func(p int) bool
		want float64
	}{
		{func(int) bool { return true }, 0.5},
		{func(p int) bool { return p != 1 }, 0.1},
		{func(p int) bool { return p == 3 }, 0},
		{func(int) bool { return false }, 0},
	} {
		rho, err := RhoOver(starts, x, c.keep)
		if err != nil || math.Abs(rho-c.want) > 1e-12 {
			t.Errorf("RhoOver = %v, %v; want %v", rho, err, c.want)
		}
	}
}

func TestValidateMatrixHelpers(t *testing.T) {
	if err := validateMatrix(graph.NewMatrix(3, inf)); err != nil {
		t.Errorf("validateMatrix(+Inf) = %v, want nil", err)
	}
}
