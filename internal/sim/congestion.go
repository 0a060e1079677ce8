package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Congestion wraps a base link model with periodic congestion episodes:
// during the first Duty fraction of every Period (in real time, phase
// Phase), delays grow by an extra uniform [0, Surge] amount in both
// directions. The model captures load-correlated delay inflation — the
// setting where worst-case bounds must be slack but most messages still
// see the quiet-period delays, which is exactly what the paper's
// per-instance optimality exploits. The base model sees the send time
// too, so a time-dependent base (another Congestion) keeps its own
// episodes and the surges add up.
type Congestion struct {
	Base   LinkDelays
	Period float64
	Duty   float64 // fraction of the period that is congested, in [0,1]
	Surge  float64 // maximum extra delay during an episode
	Phase  float64
}

var _ LinkDelays = Congestion{}

// Congested reports whether real time t falls inside an episode.
func (c Congestion) Congested(t float64) bool {
	if c.Period <= 0 {
		return false
	}
	x := math.Mod(t-c.Phase, c.Period)
	if x < 0 {
		x += c.Period
	}
	return x < c.Duty*c.Period
}

// Delay draws the base delay at t plus the episode surge when t is
// congested.
func (c Congestion) Delay(rng *rand.Rand, t float64, pq bool) float64 {
	d := c.Base.Delay(rng, t, pq)
	if c.Congested(t) {
		d += c.Surge * rng.Float64()
	}
	return d
}

func (c Congestion) String() string {
	return fmt.Sprintf("congestion(%v, period=%g, duty=%g, surge=%g)", c.Base, c.Period, c.Duty, c.Surge)
}

// LossModel is the one optional LinkDelays extension: messages may be
// lost in transit. The engine consults MaybeLose before it draws the
// delay; a lost message is counted as sent but never enters the
// execution (no send step, no receipt).
type LossModel interface {
	// MaybeLose reports whether a message sent at real time t in the
	// given direction is lost.
	MaybeLose(rng *rand.Rand, t float64, pq bool) bool
}

// Lossy wraps a link model with independent per-message loss probability;
// the delays are the inner model's. The engine asks only a link's own
// model for loss, so a Lossy nested inside another model drops nothing.
type Lossy struct {
	Inner LinkDelays
	P     float64 // loss probability in [0,1)
}

var (
	_ LinkDelays = Lossy{}
	_ LossModel  = Lossy{}
)

// MaybeLose drops the message with probability P.
func (l Lossy) MaybeLose(rng *rand.Rand, _ float64, _ bool) bool {
	return rng.Float64() < l.P
}

// Delay delegates to the inner model.
func (l Lossy) Delay(rng *rand.Rand, t float64, pq bool) float64 { return l.Inner.Delay(rng, t, pq) }

func (l Lossy) String() string { return fmt.Sprintf("lossy(%v, p=%g)", l.Inner, l.P) }
