package prob

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

func TestQuantileMonotone(t *testing.T) {
	dists := []Distribution{
		Uniform{Lo: 0.1, Hi: 0.5},
		ShiftedExp{Min: 0.05, Mean: 0.2},
		LogNormal{Mu: -2, Sigma: 0.5},
		Pareto{Xm: 0.01, Alpha: 2.5},
	}
	ps := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	for _, d := range dists {
		prev := math.Inf(-1)
		for _, p := range ps {
			q := d.Quantile(p)
			if math.IsNaN(q) || q < 0 {
				t.Errorf("%v: Quantile(%v) = %v", d, p, q)
			}
			if q < prev {
				t.Errorf("%v: quantile not monotone at p=%v (%v < %v)", d, p, q, prev)
			}
			prev = q
		}
	}
}

func TestQuantileClosedForms(t *testing.T) {
	if got := (Uniform{Lo: 1, Hi: 3}).Quantile(0.5); got != 2 {
		t.Errorf("uniform median = %v, want 2", got)
	}
	// Exponential median = Min + Mean*ln 2.
	want := 0.1 + 0.2*math.Ln2
	if got := (ShiftedExp{Min: 0.1, Mean: 0.2}).Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("exp median = %v, want %v", got, want)
	}
	// Log-normal median = exp(mu).
	if got := (LogNormal{Mu: -1, Sigma: 0.7}).Quantile(0.5); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("lognormal median = %v, want %v", got, math.Exp(-1))
	}
	// Pareto median = xm * 2^(1/alpha).
	if got := (Pareto{Xm: 1, Alpha: 2}).Quantile(0.5); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("pareto median = %v, want sqrt(2)", got)
	}
}

// TestQuantileMatchesEmpirical: the inverse-CDF sampler's empirical
// quantiles converge to the analytic ones.
func TestQuantileMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dists := []Distribution{
		Uniform{Lo: 0.1, Hi: 0.5},
		ShiftedExp{Min: 0.05, Mean: 0.2},
		LogNormal{Mu: -2, Sigma: 0.5},
	}
	const nSamples = 20000
	for _, d := range dists {
		s := Sampler{D: d}
		samples := make([]float64, nSamples)
		for i := range samples {
			samples[i] = s.Sample(rng)
		}
		sort.Float64s(samples)
		for _, p := range []float64{0.1, 0.5, 0.9} {
			emp := samples[int(p*nSamples)]
			ana := d.Quantile(p)
			if math.Abs(emp-ana) > 0.05*(ana+0.01) {
				t.Errorf("%v: empirical q%v = %v, analytic %v", d, p, emp, ana)
			}
		}
	}
}

func TestConfidenceBoundsValidation(t *testing.T) {
	u := Uniform{Lo: 0, Hi: 1}
	if _, err := ConfidenceBounds(u, u, 0, 0.1); err == nil {
		t.Error("maxMessages 0 accepted")
	}
	if _, err := ConfidenceBounds(u, u, 1, 0); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := ConfidenceBounds(u, u, 1, 1); err == nil {
		t.Error("epsilon 1 accepted")
	}
	if _, err := ConfidenceBounds(nil, u, 1, 0.1); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestConfidenceBoundsWiden(t *testing.T) {
	d := ShiftedExp{Min: 0.05, Mean: 0.2}
	b1, err := ConfidenceBounds(d, d, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ConfidenceBounds(d, d, 8, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !(b2.PQ.UB > b1.PQ.UB && b2.PQ.LB <= b1.PQ.LB) {
		t.Errorf("smaller epsilon did not widen bounds: %v vs %v", b1.PQ, b2.PQ)
	}
	b3, err := ConfidenceBounds(d, d, 64, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !(b3.PQ.UB > b1.PQ.UB) {
		t.Errorf("more messages did not widen bounds: %v vs %v", b1.PQ, b3.PQ)
	}
}

// TestConfidenceCoverage is the statistical heart: across many runs with
// delays drawn from the declared distribution, the fraction of runs where
// the assumption is violated (some delay escapes the bounds) stays below
// epsilon, and whenever the assumption holds, the realized error respects
// the reported precision.
func TestConfidenceCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dist := ShiftedExp{Min: 0.02, Mean: 0.1}
	const (
		epsilon = 0.1
		k       = 8 // messages per direction
		runs    = 400
	)
	bounds, err := ConfidenceBounds(dist, dist, k, epsilon)
	if err != nil {
		t.Fatal(err)
	}
	sampler := Sampler{D: dist}
	violated, exceeded := 0, 0
	for run := 0; run < runs; run++ {
		skew := rng.Float64()*2 - 1
		starts := []float64{0, skew}
		b := model.NewBuilder(starts)
		admissible := true
		for i := 0; i < k; i++ {
			tm := 2.0 + float64(i)
			d01 := sampler.Sample(rng)
			d10 := sampler.Sample(rng)
			if !bounds.PQ.Contains(d01) || !bounds.QP.Contains(d10) {
				admissible = false
			}
			if _, err := b.AddMessageDelay(0, 1, tm, d01); err != nil {
				t.Fatal(err)
			}
			if _, err := b.AddMessageDelay(1, 0, tm, d10); err != nil {
				t.Fatal(err)
			}
		}
		exec, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !admissible {
			violated++
			continue
		}
		tab, err := trace.Collect(exec, false)
		if err != nil {
			t.Fatal(err)
		}
		links := []core.Link{{P: 0, Q: 1, A: bounds}}
		res, err := core.SynchronizeSystem(2, links, tab, core.DefaultMLSOptions(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rho, err := core.Rho(starts, res.Corrections)
		if err != nil {
			t.Fatal(err)
		}
		if rho > res.Precision+1e-9 {
			exceeded++
		}
	}
	// The union bound is nearly tight for exponential tails, so the
	// expected violation rate is close to epsilon; allow 3-sigma binomial
	// sampling slack above the budget.
	slack := 3 * math.Sqrt(epsilon*(1-epsilon)/runs)
	if rate := float64(violated) / runs; rate > epsilon+slack {
		t.Errorf("assumption violated in %.1f%% of runs, budget %.1f%%+%.1f%%", 100*rate, 100*epsilon, 100*slack)
	}
	if exceeded != 0 {
		t.Errorf("%d admissible runs exceeded the reported precision", exceeded)
	}
}

func TestFailureBound(t *testing.T) {
	if got := Failure(8, 8, 8, 0.1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Failure at budget = %v, want 0.1", got)
	}
	if got := Failure(8, 4, 4, 0.1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("Failure at half budget = %v, want 0.05", got)
	}
	if got := Failure(1, 100, 100, 0.5); got != 1 {
		t.Errorf("Failure clamps at 1, got %v", got)
	}
}

// TestDeltaPlacementQuick: for any valid epsilon and count, the derived
// range contains the distribution's bulk (25th..75th percentile).
func TestDeltaPlacementQuick(t *testing.T) {
	d := LogNormal{Mu: -2, Sigma: 0.4}
	f := func(rawEps uint8, rawK uint8) bool {
		eps := 0.001 + float64(rawEps)/256*0.5
		k := 1 + int(rawK)%64
		b, err := ConfidenceBounds(d, d, k, eps)
		if err != nil {
			return false
		}
		return b.PQ.Contains(d.Quantile(0.25)) && b.PQ.Contains(d.Quantile(0.75))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

var _ = delay.Bounds{} // keep the dependency explicit for godoc linking

func TestDistributionStrings(t *testing.T) {
	tests := []struct {
		d    Distribution
		want string
	}{
		{Uniform{Lo: 0.1, Hi: 0.2}, "uniform(0.1,0.2)"},
		{ShiftedExp{Min: 0.1, Mean: 0.2}, "shiftedExp(min=0.1,mean=0.2)"},
		{LogNormal{Mu: -1, Sigma: 0.5}, "logNormal(mu=-1,sigma=0.5)"},
		{Pareto{Xm: 0.01, Alpha: 2}, "pareto(xm=0.01,alpha=2)"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	s := Sampler{D: Uniform{Lo: 0, Hi: 1}}
	if got := s.String(); got != "invCDF(uniform(0,1))" {
		t.Errorf("Sampler.String() = %q", got)
	}
}

// negQuantile is a deliberately broken distribution for validation tests.
type negQuantile struct{}

func (negQuantile) Quantile(p float64) float64 { return -1 }
func (negQuantile) String() string             { return "neg" }

// nonMonotone breaks the monotonicity requirement.
type nonMonotone struct{}

func (nonMonotone) Quantile(p float64) float64 { return 1 - p }
func (nonMonotone) String() string             { return "nonmono" }

func TestConfidenceBoundsRejectsBrokenDistributions(t *testing.T) {
	u := Uniform{Lo: 0, Hi: 1}
	if _, err := ConfidenceBounds(negQuantile{}, u, 4, 0.1); err == nil {
		t.Error("negative-quantile distribution accepted")
	}
	if _, err := ConfidenceBounds(u, nonMonotone{}, 4, 0.1); err == nil {
		t.Error("non-monotone distribution accepted")
	}
}

func TestSamplerClampsNegative(t *testing.T) {
	s := Sampler{D: negQuantile{}}
	rng := rand.New(rand.NewSource(1))
	if got := s.Sample(rng); got != 0 {
		t.Errorf("Sample = %v, want clamp to 0", got)
	}
}
