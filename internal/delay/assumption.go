// Package delay implements the per-link delay assumptions of Section 6 of
// the paper as first-class values. Each assumption knows how to compute the
// (estimated) maximal local shifts m~ls for both directions of its link
// from the observed per-direction delay statistics, and how to check that a
// set of actual delays is admissible.
//
// Orientation convention: an assumption is attached to an unordered link
// {p,q} with a fixed orientation; "PQ" refers to the p->q direction and
// "QP" to q->p. MLS(pq, qp) returns (mls(p,q), mls(q,p)) where mls(p,q) is
// the maximal local shift of q with respect to p: how much earlier q's
// history can be re-executed while the pair's delays stay admissible.
//
// Because Lemmas 6.2 and 6.5 have identical shape for actual delays d and
// estimated delays d~ (the start-time offsets fold through), the same MLS
// code serves both the synchronizer (fed estimated stats from views) and
// the verifier (fed actual stats).
package delay

import (
	"fmt"
	"math"
	"strings"

	"clocksync/internal/trace"
)

// Assumption is a local (per-link) delay assumption, closed under constant
// shifts as required by Section 5.1.
type Assumption interface {
	// MLS returns the maximal local shifts (mls(p,q), mls(q,p)) implied by
	// the assumption given per-direction delay statistics. +Inf means the
	// assumption places no bound on that direction's shift.
	MLS(pq, qp trace.DirStats) (mlsPQ, mlsQP float64)

	// Admits reports whether actual per-direction delay multisets satisfy
	// the assumption.
	Admits(pq, qp []float64) bool

	// String renders the assumption for diagnostics and config files.
	String() string
}

// Range is a closed delay interval [LB, UB]; UB may be +Inf.
type Range struct {
	LB, UB float64
}

// Contains reports whether d lies in the range.
func (r Range) Contains(d float64) bool { return d >= r.LB && d <= r.UB }

func (r Range) String() string {
	if math.IsInf(r.UB, 1) {
		return fmt.Sprintf("[%g,inf)", r.LB)
	}
	return fmt.Sprintf("[%g,%g]", r.LB, r.UB)
}

func (r Range) validate() error {
	if math.IsNaN(r.LB) || math.IsNaN(r.UB) {
		return fmt.Errorf("delay: NaN bound in %v", r)
	}
	if r.LB < 0 {
		return fmt.Errorf("delay: negative lower bound %g", r.LB)
	}
	if math.IsInf(r.LB, 0) {
		return fmt.Errorf("delay: infinite lower bound")
	}
	if r.UB < r.LB {
		return fmt.Errorf("delay: empty range %v", r)
	}
	return nil
}

// Bounds is the model of Section 6.1: per-direction lower and upper bounds
// on the delay. Upper bounds may be +Inf (lower-bounds-only model); the
// no-bounds model is Bounds with [0, +Inf) in both directions.
type Bounds struct {
	PQ Range // bounds on p->q delays
	QP Range // bounds on q->p delays
}

var _ Assumption = Bounds{}

// NewBounds validates and returns a Bounds assumption.
func NewBounds(pq, qp Range) (Bounds, error) {
	if err := pq.validate(); err != nil {
		return Bounds{}, fmt.Errorf("delay: p->q bounds: %w", err)
	}
	if err := qp.validate(); err != nil {
		return Bounds{}, fmt.Errorf("delay: q->p bounds: %w", err)
	}
	return Bounds{PQ: pq, QP: qp}, nil
}

// SymmetricBounds returns [lb,ub] bounds applying in both directions.
func SymmetricBounds(lb, ub float64) (Bounds, error) {
	return NewBounds(Range{lb, ub}, Range{lb, ub})
}

// LowerOnly returns lower-bounds-only bounds (model 2 of the paper).
func LowerOnly(lbPQ, lbQP float64) (Bounds, error) {
	return NewBounds(Range{lbPQ, math.Inf(1)}, Range{lbQP, math.Inf(1)})
}

// NoBounds returns the fully asynchronous model (model 3): delays are only
// known to be non-negative.
func NoBounds() Bounds {
	return Bounds{PQ: Range{0, math.Inf(1)}, QP: Range{0, math.Inf(1)}}
}

// MLS implements Corollary 6.3:
//
//	m~ls(p,q) = min( ub(q,p) - d~max(q,p),  d~min(p,q) - lb(p,q) ).
//
// Empty-direction conventions (d~max = -Inf, d~min = +Inf) make silent
// directions unconstraining, as in the paper.
func (b Bounds) MLS(pq, qp trace.DirStats) (float64, float64) {
	mlsPQ := math.Min(b.QP.UB-qp.Max, pq.Min-b.PQ.LB)
	mlsQP := math.Min(b.PQ.UB-pq.Max, qp.Min-b.QP.LB)
	return mlsPQ, mlsQP
}

// Admits reports whether every delay lies within its direction's bounds.
func (b Bounds) Admits(pq, qp []float64) bool {
	for _, d := range pq {
		if !b.PQ.Contains(d) {
			return false
		}
	}
	for _, d := range qp {
		if !b.QP.Contains(d) {
			return false
		}
	}
	return true
}

func (b Bounds) String() string {
	return fmt.Sprintf("bounds(pq=%v, qp=%v)", b.PQ, b.QP)
}

// RTTBias is the model of Section 6.2: the difference between the delay of
// any message in one direction and any message in the other direction is at
// most B, and delays are non-negative.
type RTTBias struct {
	B float64
}

var _ Assumption = RTTBias{}

// NewRTTBias validates and returns an RTTBias assumption.
func NewRTTBias(b float64) (RTTBias, error) {
	if math.IsNaN(b) || b < 0 {
		return RTTBias{}, fmt.Errorf("delay: bias bound %g must be non-negative", b)
	}
	if math.IsInf(b, 1) {
		return RTTBias{}, fmt.Errorf("delay: bias bound must be finite (use NoBounds for none)")
	}
	return RTTBias{B: b}, nil
}

// MLS implements Corollary 6.6:
//
//	m~ls(p,q) = min( d~min(p,q),  (B + d~min(p,q) - d~max(q,p)) / 2 ).
func (r RTTBias) MLS(pq, qp trace.DirStats) (float64, float64) {
	mlsPQ := math.Min(pq.Min, (r.B+pq.Min-qp.Max)/2)
	mlsQP := math.Min(qp.Min, (r.B+qp.Min-pq.Max)/2)
	return mlsPQ, mlsQP
}

// Admits reports whether all delays are non-negative and every
// opposite-direction pair differs by at most B.
func (r RTTBias) Admits(pq, qp []float64) bool {
	minPQ, maxPQ := math.Inf(1), math.Inf(-1)
	for _, d := range pq {
		if d < 0 {
			return false
		}
		minPQ = math.Min(minPQ, d)
		maxPQ = math.Max(maxPQ, d)
	}
	minQP, maxQP := math.Inf(1), math.Inf(-1)
	for _, d := range qp {
		if d < 0 {
			return false
		}
		minQP = math.Min(minQP, d)
		maxQP = math.Max(maxQP, d)
	}
	if len(pq) == 0 || len(qp) == 0 {
		return true // no opposite pairs to constrain
	}
	return maxPQ-minQP <= r.B && maxQP-minPQ <= r.B
}

func (r RTTBias) String() string { return fmt.Sprintf("bias(%g)", r.B) }

// Intersect combines several assumptions on the same link (Theorem 5.6):
// an execution is admissible iff it is admissible under each, and the
// maximal local shift is the minimum of the individual shifts.
type Intersect struct {
	Parts []Assumption
}

var _ Assumption = Intersect{}

// NewIntersect returns the conjunction of the given assumptions. At least
// one part is required.
func NewIntersect(parts ...Assumption) (Intersect, error) {
	if len(parts) == 0 {
		return Intersect{}, fmt.Errorf("delay: intersection of zero assumptions")
	}
	for i, p := range parts {
		if p == nil {
			return Intersect{}, fmt.Errorf("delay: nil assumption at index %d", i)
		}
	}
	return Intersect{Parts: append([]Assumption(nil), parts...)}, nil
}

// MLS implements Theorem 5.6: elementwise minimum over the parts.
func (in Intersect) MLS(pq, qp trace.DirStats) (float64, float64) {
	mlsPQ, mlsQP := math.Inf(1), math.Inf(1)
	for _, a := range in.Parts {
		mp, mq := a.MLS(pq, qp)
		mlsPQ = math.Min(mlsPQ, mp)
		mlsQP = math.Min(mlsQP, mq)
	}
	return mlsPQ, mlsQP
}

// Admits reports whether every part admits the delays.
func (in Intersect) Admits(pq, qp []float64) bool {
	for _, a := range in.Parts {
		if !a.Admits(pq, qp) {
			return false
		}
	}
	return true
}

func (in Intersect) String() string {
	parts := make([]string, len(in.Parts))
	for i, a := range in.Parts {
		parts[i] = a.String()
	}
	return "and(" + strings.Join(parts, ", ") + ")"
}

// RoundTrip returns the assumption's bounds on d(m1) + d(m2) for any pair
// of opposite-direction messages on the link. Because the start-time
// offsets cancel in a round trip (Lemma 6.1: d~ = d + S_from - S_to), the
// same interval bounds the sum of *estimated* minimum delays reported for
// the two directions — the consistency check Byzantine excision relies on.
// Assumptions that bound only the difference of opposite delays (RTTBias)
// or nothing at all still pin the sum to [0, +Inf) by non-negativity.
func RoundTrip(a Assumption) Range {
	switch v := a.(type) {
	case Bounds:
		return Range{LB: v.PQ.LB + v.QP.LB, UB: v.PQ.UB + v.QP.UB}
	case Intersect:
		r := Range{LB: 0, UB: math.Inf(1)}
		for _, p := range v.Parts {
			pr := RoundTrip(p)
			r.LB = math.Max(r.LB, pr.LB)
			r.UB = math.Min(r.UB, pr.UB)
		}
		return r
	default: // RTTBias and unknown assumptions: only non-negativity
		return Range{LB: 0, UB: math.Inf(1)}
	}
}
