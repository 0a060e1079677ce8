package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestSamplersWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		s      Sampler
		lo, hi float64
	}{
		{Constant{D: 2}, 2, 2},
		{Uniform{Lo: 1, Hi: 3}, 1, 3},
		{ShiftedExp{Min: 0.5, Mean: 1}, 0.5, math.Inf(1)},
		{TruncNormal{Mu: 2, Sigma: 0.5, Lo: 1, Hi: 3}, 1, 3},
		{Bimodal{A: Constant{D: 1}, B: Uniform{Lo: 4, Hi: 5}, PA: 0.7}, 1, 5},
	} {
		for i := 0; i < 2000; i++ {
			d := tc.s.Sample(rng)
			if d < tc.lo || d > tc.hi {
				t.Errorf("%v: sample %v outside support [%v,%v]", tc.s, d, tc.lo, tc.hi)
				break
			}
		}
	}
}

func TestConstantSampler(t *testing.T) {
	c := Constant{D: 1.5}
	if got := c.Sample(nil); got != 1.5 {
		t.Errorf("Sample = %v, want 1.5", got)
	}
}

func TestTruncNormalPathologicalClamps(t *testing.T) {
	// Mean far outside the window: rejection fails, fallback clamps.
	s := TruncNormal{Mu: 100, Sigma: 0.001, Lo: 0, Hi: 1}
	rng := rand.New(rand.NewSource(2))
	d := s.Sample(rng)
	if d < 0 || d > 1 {
		t.Errorf("sample %v escaped [0,1]", d)
	}
}

func TestBimodalMixes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := Bimodal{A: Constant{D: 1}, B: Constant{D: 10}, PA: 0.5}
	sawA, sawB := false, false
	for i := 0; i < 100; i++ {
		switch b.Sample(rng) {
		case 1:
			sawA = true
		case 10:
			sawB = true
		}
	}
	if !sawA || !sawB {
		t.Errorf("mixture did not draw both modes (a=%v b=%v)", sawA, sawB)
	}
}

func TestBiasWindowRespectsWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := BiasWindow{Base: 3, Width: 0.5}
	var all []float64
	for i := 0; i < 500; i++ {
		all = append(all, w.Delay(rng, float64(i), true), w.Delay(rng, float64(i), false))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range all {
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if lo < 3 || hi > 3.5 {
		t.Errorf("delays span [%v,%v], want within [3,3.5]", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Errorf("spread %v exceeds width 0.5", hi-lo)
	}
}

func TestSymmetricLink(t *testing.T) {
	l := Symmetric(Constant{D: 2})
	if l.Delay(nil, 0, true) != 2 || l.Delay(nil, 0, false) != 2 {
		t.Error("Symmetric link does not use the sampler both ways")
	}
}

func TestSamplerStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Constant{D: 1}.String(), "const(1)"},
		{Uniform{Lo: 0, Hi: 2}.String(), "uniform(0,2)"},
		{ShiftedExp{Min: 1, Mean: 2}.String(), "shiftedExp(min=1,mean=2)"},
		{BiasWindow{Base: 1, Width: 2}.String(), "biasWindow(base=1,width=2)"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}
