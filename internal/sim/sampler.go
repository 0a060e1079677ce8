// Package sim is a deterministic discrete-event simulator for message-
// passing systems with drift-free clocks: the substrate on which the
// paper's algorithms are exercised. It provides per-link delay models,
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

func (c Constant) String() string { return fmt.Sprintf("const(%g)", c.D) }

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

var _ Sampler = Uniform{}

// Sample draws a uniform delay.
func (u Uniform) Sample(rng *rand.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*rng.Float64() }

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

func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal(%v@%g, %v)", b.A, b.PA, b.B)
}

// LinkDelays is the delay model of one link: the engine draws every
// message's delay with one Delay call. The two directions may be
// correlated (the bias-window model) and the distribution may depend on
// the send time (the congestion model). A model may also implement
// LossModel, the one optional extension.
type LinkDelays interface {
	// Delay draws the delay of a message sent at real time t; pq selects
	// the direction (true for the canonical p->q direction, P < Q).
	Delay(rng *rand.Rand, t float64, pq bool) float64
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

// Delay draws from the direction's sampler; the send time is unused.
func (l Independent) Delay(rng *rand.Rand, _ float64, pq bool) float64 {
	if pq {
		return l.PQ.Sample(rng)
	}
	return l.QP.Sample(rng)
}

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

// Delay draws a delay inside the window, the same way in both directions.
func (b BiasWindow) Delay(rng *rand.Rand, _ float64, _ bool) float64 {
	return b.Base + b.Width*rng.Float64()
}

func (b BiasWindow) String() string {
	return fmt.Sprintf("biasWindow(base=%g,width=%g)", b.Base, b.Width)
}
