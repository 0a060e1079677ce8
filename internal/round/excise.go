package round

import (
	"math"

	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// Slack widens both consistency intervals of the excision checks,
// absorbing float rounding in honest reports.
const Slack = 1e-9

// excise applies the consistency checks to the stored reports and removes
// what fails them, returning the excised reporters (sorted by id), the
// equivocators among them, and the links whose statistics were dropped
// without an attributable liar. Runs once, at solve time, under
// Config.Excision.
//
// Two mechanisms, in order:
//
//  1. Equivocators — origins observed with conflicting report versions
//     during collection — are excised outright: no version can be
//     trusted over another.
//  2. Per-link consistency (Lemma 6.1): estimated delays fold the
//     start offsets as d~ = d + S_from − S_to, so the offsets cancel
//     over a round trip and the sum of the two directions' reported
//     minimum estimated delays must land inside the assumption's
//     round-trip envelope (delay.RoundTrip). Additionally the link's
//     local-shift pair must stay feasible: m~ls(p,q) + m~ls(q,p) >= 0
//     for estimates derived from any real execution (the solver's
//     2-cycle), which catches lies hiding in the upper-bound terms that
//     the min-sum round trip cannot see. Both checks allow Slack. A
//     violation implicates the link's two reporters — the check cannot
//     tell which one lied. Blame attribution: while some reporter is
//     implicated by two or more distinct links, excise the
//     most-implicated one (ties to the lowest id) and drop its
//     violations with it; leftover single-link violations excise the
//     link's statistics instead, degrading it to the no-data case
//     rather than trusting either side.
//
// A liar cross-checked by at least two honest neighbors is therefore
// caught and attributed; a lie confined to a single link costs only that
// link. What the check can never catch is a lie inside the envelope — in
// particular a uniform shift of all of a node's reported statistics,
// which is indistinguishable from the node having started earlier or
// later and corrupts only the liar's own correction (the offsets cancel
// on every path through it).
func (r *Round) excise() (excised, equivocators []model.ProcID, excisedLinks [][2]model.ProcID) {
	cut := make([]bool, r.cfg.N)
	for p, eq := range r.equivocators {
		if eq {
			cut[p] = true
			equivocators = append(equivocators, model.ProcID(p))
		}
	}

	type viol struct{ p, q model.ProcID }
	var violations []viol
	for _, l := range r.cfg.Links {
		spq, okPQ := r.stat(l.P, l.Q)
		sqp, okQP := r.stat(l.Q, l.P)
		if !okPQ || !okQP || cut[l.P] || cut[l.Q] {
			continue // one side silent, or an equivocator's statistics: nothing to cross-check
		}
		sum := spq.Min + sqp.Min
		rt := delay.RoundTrip(l.A)
		switch {
		case sum < rt.LB-Slack || sum > rt.UB+Slack:
			violations = append(violations, viol{p: l.P, q: l.Q})
			rLog.Debug("round-trip check violated",
				"link", [2]model.ProcID{l.P, l.Q}, "sum", sum, "envelope", rt)
		case pairSlack(l.A, spq, sqp) < -Slack:
			violations = append(violations, viol{p: l.P, q: l.Q})
			rLog.Debug("local-shift pair infeasible",
				"link", [2]model.ProcID{l.P, l.Q}, "slack", pairSlack(l.A, spq, sqp))
		}
	}
	flagged := make(map[model.ProcID]bool)
	for _, v := range violations {
		flagged[v.p] = true
		flagged[v.q] = true
	}
	mReportsFlagged.Add(int64(len(flagged) + len(equivocators)))

	for len(violations) > 0 {
		counts := make([]int, r.cfg.N)
		for _, v := range violations {
			counts[v.p]++
			counts[v.q]++
		}
		worst, worstCount := model.ProcID(0), 0
		for p, c := range counts {
			if c > worstCount {
				worst, worstCount = model.ProcID(p), c
			}
		}
		if worstCount < 2 {
			break
		}
		cut[worst] = true
		kept := violations[:0]
		for _, v := range violations {
			if v.p != worst && v.q != worst {
				kept = append(kept, v)
			}
		}
		violations = kept
	}
	r.cutLinks = make(map[trace.LinkKey]bool, len(violations))
	for _, v := range violations {
		excisedLinks = append(excisedLinks, [2]model.ProcID{v.p, v.q})
		r.cutLinks[trace.Canon(v.p, v.q)] = true
	}
	mLinksExcised.Add(int64(len(excisedLinks)))

	for p, c := range cut {
		if c {
			excised = append(excised, model.ProcID(p))
			r.drop(model.ProcID(p))
		}
	}
	mReportsExcised.Add(int64(len(excised)))
	return excised, equivocators, excisedLinks
}

// stat returns the stored statistics of the directed link from->to, as
// reported by its receiver, to.
func (r *Round) stat(from, to model.ProcID) (trace.DirStats, bool) {
	if !r.Has(to) {
		return trace.DirStats{}, false
	}
	for _, dr := range r.reports[to] {
		if dr.From == from {
			return dr.Stats, true
		}
	}
	return trace.DirStats{}, false
}

// pairSlack is the feasibility slack of one link's local-shift 2-cycle,
// m~ls(p,q) + m~ls(q,p), with the estimates exactly as the solver forms
// them (the link's assumption intersected with the non-negative-delay
// assumption, matching core.DefaultMLSOptions). Estimates derived from a
// real execution always have non-negative cycle sums; a negative slack
// proves at least one side lied.
func pairSlack(a delay.Assumption, spq, sqp trace.DirStats) float64 {
	mPQ, mQP := a.MLS(spq, sqp)
	nPQ, nQP := delay.NoBounds().MLS(spq, sqp)
	return math.Min(mPQ, nPQ) + math.Min(mQP, nQP)
}

// feasibilityVictim picks the reporter to excise when the per-link checks
// all passed but the full system still has a negative cycle (a lie spread
// across several links, each individually inside its envelope, summing to
// an infeasibility around a longer cycle). The pick is the non-leader
// reporter whose worst incident link slack is smallest — lies tighten the
// liar's own links the most — with ties to the lowest id. ok is false
// when no reporter has a cross-checked link left to score.
func (r *Round) feasibilityVictim() (model.ProcID, bool) {
	worst := make(map[model.ProcID]float64)
	for _, l := range r.cfg.Links {
		spq, okPQ := r.stat(l.P, l.Q)
		sqp, okQP := r.stat(l.Q, l.P)
		if !okPQ || !okQP {
			continue
		}
		slack := pairSlack(l.A, spq, sqp)
		for _, p := range [2]model.ProcID{l.P, l.Q} {
			if w, ok := worst[p]; !ok || slack < w {
				worst[p] = slack
			}
		}
	}
	victim, best, found := model.ProcID(0), math.Inf(1), false
	for p := 0; p < r.cfg.N; p++ {
		if p == r.cfg.Solve.Root {
			continue
		}
		if w, ok := worst[model.ProcID(p)]; ok && w < best {
			victim, best, found = model.ProcID(p), w, true
		}
	}
	return victim, found
}
