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

// Tighten folds obs into st's direction statistics under assumption a
// and refreshes st.MLSPQ / st.MLSQP from the UPDATED statistics with the
// assumption's batch MLS, so the state always equals what a batch
// reduction of the full trace would produce — streaming and batch are
// bit-identical by construction. The return values report each
// direction's movement as Shrank, Unchanged or Grew. All built-in models
// are monotone, so Grew is never returned for them: the shifts of Bounds
// (Corollary 6.3) and RTTBias (Corollary 6.6) are non-increasing in d~max,
// which only grows, and non-decreasing in d~min, which only shrinks;
// Intersect takes pointwise minima and a flip only swaps the directions.
// A foreign model's direction reports surface whatever its MLS does.
func Tighten(a Assumption, obs Obs, st *LinkStats) (dPQ, dQP int) {
	if obs.ToQ {
		st.PQ.Add(obs.Est)
	} else {
		st.QP.Add(obs.Est)
	}
	newPQ, newQP := a.MLS(st.PQ, st.QP)
	dPQ, dQP = direction(st.MLSPQ, newPQ), direction(st.MLSQP, newQP)
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
