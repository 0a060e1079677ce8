package delay

import (
	"math"

	"clocksync/internal/trace"
)

// This file is the online (streaming) face of the delay models: instead of
// reducing a whole trace and computing m~ls once, a long-running deployment
// folds observations in one at a time and keeps the local shifts current.
//
// The key structural fact, exploited by the incremental synchronizer in
// internal/core: for every built-in model the MLS formulas are monotone
// non-increasing in the direction statistics (d~min only shrinks, d~max
// only grows as messages arrive), so a new observation can only TIGHTEN a
// link's maximal local shifts. Tightened shifts can only lower
// shortest-path weights downstream, which is what lets the incremental
// synchronizer certify a cached closure as unchanged.

// Obs is one new observation folding into a link's statistics: the
// estimated delay d~ = recvClock - sendClock and the direction it traveled
// (relative to the link's stored orientation).
type Obs struct {
	Est float64 // estimated delay of the message
	ToQ bool    // true: the message traveled p -> q; false: q -> p
}

// LinkStats is the online per-link state of incremental tightening: the
// running direction statistics plus the current local shifts they imply
// under the link's assumption. NewLinkStats returns the empty state
// (shifts +Inf, statistics empty per the paper's conventions).
type LinkStats struct {
	PQ, QP       trace.DirStats
	MLSPQ, MLSQP float64
}

// NewLinkStats returns the state of a link before any traffic.
func NewLinkStats() LinkStats {
	return LinkStats{
		PQ:    trace.NewDirStats(),
		QP:    trace.NewDirStats(),
		MLSPQ: math.Inf(1),
		MLSQP: math.Inf(1),
	}
}

// Tightening direction report: how one direction's local shift moved under
// an update. The built-in models only ever Shrank (or held); Grew flags a
// non-monotone custom assumption, telling incremental consumers to abandon
// decrease-only reasoning and re-solve in batch.
const (
	Shrank    = -1
	Unchanged = 0
	Grew      = +1
)

// Tightener is the incremental-refinement interface. Tighten folds one
// observation into st's direction statistics and refreshes st.MLSPQ /
// st.MLSQP from the UPDATED statistics (so the state always equals what a
// batch reduction of the full trace would produce — streaming and batch
// are bit-identical by construction). The return values report each
// direction's movement as Shrank, Unchanged or Grew.
//
// All built-in models (Bounds, RTTBias, Intersect and their flips)
// guarantee the result is monotone: Grew is never returned.
type Tightener interface {
	Tighten(obs Obs, st *LinkStats) (dPQ, dQP int)
}

// Tighten folds obs into st under assumption a: models implementing
// Tightener use their own update, anything else goes through the generic
// fold-and-recompute path (identical result, still exact — only the
// monotonicity guarantee is unknown for foreign models, which the
// direction reports surface).
func Tighten(a Assumption, obs Obs, st *LinkStats) (dPQ, dQP int) {
	if t, ok := a.(Tightener); ok {
		return t.Tighten(obs, st)
	}
	return tightenGeneric(a, obs, st)
}

// tightenGeneric folds the observation and recomputes both shifts from the
// updated statistics via the assumption's batch MLS — the reference
// semantics every specialized Tighten must match.
func tightenGeneric(a Assumption, obs Obs, st *LinkStats) (dPQ, dQP int) {
	fold(obs, st)
	newPQ, newQP := a.MLS(st.PQ, st.QP)
	return refresh(st, newPQ, newQP)
}

// fold adds the observation to the direction it traveled.
func fold(obs Obs, st *LinkStats) {
	if obs.ToQ {
		st.PQ.Add(obs.Est)
	} else {
		st.QP.Add(obs.Est)
	}
}

// refresh installs recomputed shifts and classifies both movements.
func refresh(st *LinkStats, newPQ, newQP float64) (dPQ, dQP int) {
	dPQ = direction(st.MLSPQ, newPQ)
	dQP = direction(st.MLSQP, newQP)
	st.MLSPQ, st.MLSQP = newPQ, newQP
	return dPQ, dQP
}

// direction classifies a shift move. NaN (a broken custom model) is
// reported as Grew so incremental consumers fall back to the batch path,
// which rejects NaN inputs with the same error the one-shot pipeline gives.
func direction(old, new float64) int {
	switch {
	case math.IsNaN(new):
		return Grew
	case new < old:
		return Shrank
	case new > old:
		return Grew
	default:
		return Unchanged
	}
}

// The concrete Tighten implementations below call their own MLS directly
// instead of delegating through tightenGeneric: re-boxing the receiver
// into the Assumption interface would heap-allocate on every observation,
// and the streaming hot path is contractually allocation-free.

// Tighten implements Tightener for the Section 6.1 bounds model. Corollary
// 6.3's shifts min(ub - d~max, d~min - lb) are non-increasing in d~max
// (which only grows) and non-decreasing in d~min (which only shrinks), so
// the update is monotone.
func (b Bounds) Tighten(obs Obs, st *LinkStats) (dPQ, dQP int) {
	fold(obs, st)
	newPQ, newQP := b.MLS(st.PQ, st.QP)
	return refresh(st, newPQ, newQP)
}

// Tighten implements Tightener for the Section 6.2 RTT-bias model.
// Corollary 6.6's shifts min(d~min, (B + d~min - d~max)/2) are monotone in
// the statistics for the same reason as Bounds.
func (r RTTBias) Tighten(obs Obs, st *LinkStats) (dPQ, dQP int) {
	fold(obs, st)
	newPQ, newQP := r.MLS(st.PQ, st.QP)
	return refresh(st, newPQ, newQP)
}

// Tighten implements Tightener for conjunctions: the pointwise minimum of
// monotone updates is monotone (Theorem 5.6 carries over unchanged).
func (in Intersect) Tighten(obs Obs, st *LinkStats) (dPQ, dQP int) {
	fold(obs, st)
	newPQ, newQP := in.MLS(st.PQ, st.QP)
	return refresh(st, newPQ, newQP)
}

// Tighten implements Tightener for orientation-flipped assumptions; the
// flip only exchanges the roles of the two directions.
func (f flipped) Tighten(obs Obs, st *LinkStats) (dPQ, dQP int) {
	fold(obs, st)
	newPQ, newQP := f.MLS(st.PQ, st.QP)
	return refresh(st, newPQ, newQP)
}
