package prob

import (
	"math"
	"math/rand"

	"clocksync/internal/sim"
)

// Sampler adapts a Distribution to the simulator's Sampler interface via
// inverse-CDF sampling, so experiments draw from exactly the distribution
// the assumption was derived from.
type Sampler struct {
	D Distribution
}

var _ sim.Sampler = Sampler{}

// Sample draws by inverting a uniform variate.
func (s Sampler) Sample(rng *rand.Rand) float64 {
	// Avoid p == 0 and p == 1, where heavy-tailed quantiles blow up.
	p := rng.Float64()
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p >= 1 {
		p = 1 - 1e-16
	}
	d := s.D.Quantile(p)
	if d < 0 {
		return 0
	}
	return d
}

func (s Sampler) String() string { return "invCDF(" + s.D.String() + ")" }
