// Package sim is a deterministic discrete-event simulator for message-
// passing systems with drift-free clocks: the substrate on which the
// paper's algorithms are exercised. It provides per-link delay samplers,
// topology builders, simple measurement protocols, and an event engine
// that produces formal executions (package model) for the synchronizer and
// verifier to consume.
//
// The engine processes events in (real time, push order) order, and no
// event may be scheduled before the one being processed: a message
// arrives at its send time plus a delay >= 0, and Env.SetTimer refuses
// the past. The event queue relies on that monotone-push contract; a
// push that broke it would abort the run with an internal error rather
// than be delivered out of order.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler draws message delays. Implementations must be deterministic
// functions of the supplied random source.
type Sampler interface {
	// Sample draws one delay.
	Sample(rng *rand.Rand) float64
	// Support returns the smallest interval [lo, hi] certain to contain
	// every sample; hi may be +Inf. Experiments use it to derive sound
	// bounds assumptions for the links they configure.
	Support() (lo, hi float64)
	// String describes the sampler.
	String() string
}

// Constant always returns the same delay.
type Constant struct {
	D float64
}

var _ Sampler = Constant{}

// Sample returns the constant delay.
func (c Constant) Sample(*rand.Rand) float64 { return c.D }

// Support returns the degenerate interval [D, D].
func (c Constant) Support() (float64, float64) { return c.D, c.D }

func (c Constant) String() string { return fmt.Sprintf("const(%g)", c.D) }

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

var _ Sampler = Uniform{}

// Sample draws a uniform delay.
func (u Uniform) Sample(rng *rand.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*rng.Float64() }

// Support returns [Lo, Hi].
func (u Uniform) Support() (float64, float64) { return u.Lo, u.Hi }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.Lo, u.Hi) }

// ShiftedExp draws Min + Exponential(Mean): a minimum transmission delay
// plus exponential queueing, the classic model for asynchronous links with
// only a lower bound.
type ShiftedExp struct {
	Min  float64
	Mean float64 // mean of the exponential part
}

var _ Sampler = ShiftedExp{}

// Sample draws a shifted-exponential delay.
func (s ShiftedExp) Sample(rng *rand.Rand) float64 { return s.Min + rng.ExpFloat64()*s.Mean }

// Support returns [Min, +Inf).
func (s ShiftedExp) Support() (float64, float64) { return s.Min, math.Inf(1) }

func (s ShiftedExp) String() string { return fmt.Sprintf("shiftedExp(min=%g,mean=%g)", s.Min, s.Mean) }

// TruncNormal draws a normal(Mu, Sigma) truncated to [Lo, Hi] by rejection.
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

var _ Sampler = TruncNormal{}

// Sample draws a truncated-normal delay. It falls back to clamping after
// many rejections so pathological parameters cannot loop forever.
func (t TruncNormal) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		x := t.Mu + t.Sigma*rng.NormFloat64()
		if x >= t.Lo && x <= t.Hi {
			return x
		}
	}
	return math.Min(math.Max(t.Mu, t.Lo), t.Hi)
}

// Support returns [Lo, Hi].
func (t TruncNormal) Support() (float64, float64) { return t.Lo, t.Hi }

func (t TruncNormal) String() string {
	return fmt.Sprintf("truncNormal(mu=%g,sigma=%g,[%g,%g])", t.Mu, t.Sigma, t.Lo, t.Hi)
}

// Bimodal draws from A with probability PA, otherwise from B: a fast path
// plus an occasional slow path (e.g. cache hit vs. retransmission).
type Bimodal struct {
	A, B Sampler
	PA   float64
}

var _ Sampler = Bimodal{}

// Sample draws from the mixture.
func (b Bimodal) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < b.PA {
		return b.A.Sample(rng)
	}
	return b.B.Sample(rng)
}

// Support returns the union hull of the two supports.
func (b Bimodal) Support() (float64, float64) {
	aLo, aHi := b.A.Support()
	bLo, bHi := b.B.Support()
	return math.Min(aLo, bLo), math.Max(aHi, bHi)
}

func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal(%v@%g, %v)", b.A, b.PA, b.B)
}

// LinkDelays draws delays for the two directions of one link; the two
// directions may be correlated (e.g. the bias-window model).
type LinkDelays interface {
	// SamplePQ draws a delay for the p->q direction.
	SamplePQ(rng *rand.Rand) float64
	// SampleQP draws a delay for the q->p direction.
	SampleQP(rng *rand.Rand) float64
	// String describes the link model.
	String() string
}

// Independent uses an unrelated sampler per direction.
type Independent struct {
	PQ, QP Sampler
}

var _ LinkDelays = Independent{}

// Symmetric returns an Independent link with the same sampler both ways.
func Symmetric(s Sampler) Independent { return Independent{PQ: s, QP: s} }

// SamplePQ draws a p->q delay.
func (l Independent) SamplePQ(rng *rand.Rand) float64 { return l.PQ.Sample(rng) }

// SampleQP draws a q->p delay.
func (l Independent) SampleQP(rng *rand.Rand) float64 { return l.QP.Sample(rng) }

func (l Independent) String() string { return fmt.Sprintf("indep(pq=%v, qp=%v)", l.PQ, l.QP) }

// BiasWindow draws every delay of the link — both directions — uniformly
// from [Base, Base+Width]. Any two opposite messages then differ by at most
// Width, so the RTTBias(Width) assumption is admissible by construction
// (Section 6.2), while absolute bounds on Base may be unknown.
type BiasWindow struct {
	Base  float64
	Width float64
}

var _ LinkDelays = BiasWindow{}

// SamplePQ draws a delay inside the window.
func (b BiasWindow) SamplePQ(rng *rand.Rand) float64 { return b.Base + b.Width*rng.Float64() }

// SampleQP draws a delay inside the window.
func (b BiasWindow) SampleQP(rng *rand.Rand) float64 { return b.Base + b.Width*rng.Float64() }

func (b BiasWindow) String() string {
	return fmt.Sprintf("biasWindow(base=%g,width=%g)", b.Base, b.Width)
}
