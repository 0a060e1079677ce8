package core

import (
	"math"

	"clocksync/internal/obs"
)

// QualityReport carries the paper's figures of merit for one solved
// instance: how tight the achieved corrected-clock discrepancy bound is
// against the A_max optimum of Theorem 4.6.
type QualityReport struct {
	// Achieved is the realized worst-pair bound max_{p,q} PairBound(p,q)
	// over all pairs inside sync components when the result carries the
	// m~s matrix; by instance optimality it then equals Optimal up to
	// floating-point noise on every fault-free solve. Without m~s it is
	// the largest component precision, λ̂ on a hierarchical component.
	Achieved float64 `json:"achieved"`
	// Optimal is the largest finite component A_max — the precision no
	// correction function can beat (Theorem 4.4) — when every component
	// is solved exactly. With a hierarchical component it is the largest
	// ComponentLowerBound λ_B ≤ A_max: a lower bound, not the optimum.
	Optimal float64 `json:"optimal"`
	// Ratio is Achieved/Optimal (1 when both are zero, e.g. singleton
	// systems). With m~s, fault-free solves report 1.0 ± ε and a ratio
	// meaningfully above 1 indicates a corrupted result. Without m~s it
	// is the width λ̂ / λ_B of the bracket around A_max (see
	// AssessQuality): exactly 1 on exactly solved components, about 2 on
	// a healthy hierarchical solve of a 2112-node ring of cliques, so
	// there it signals nothing about corruption.
	Ratio float64 `json:"ratio"`
	// Pairs counts the processor pairs measured for Achieved.
	Pairs int `json:"pairs"`
}

// pairBoundRaw is PairBound without range checks, for in-component pairs.
func pairBoundRaw(res *Result, p, q int) float64 {
	fwd := res.MS[p][q] + res.Corrections[q] - res.Corrections[p]
	rev := res.MS[q][p] + res.Corrections[p] - res.Corrections[q]
	return math.Max(fwd, rev)
}

// AssessQuality computes the quality report for a solved instance without
// publishing anything: the worst pair bound across all in-component
// pairs, the largest finite component A_max, and their ratio. When the
// result carries no m~s matrix (large sparse solves) no pair sweep is
// possible, and the report is the certified bracket instead: Achieved is
// the largest component precision (λ̂ on a hierarchical component),
// Optimal the largest ComponentLowerBound (λ_B), Pairs zero. On exactly
// solved components the two coincide.
func AssessQuality(res *Result) QualityReport {
	return assess(res, nil, nil, nil)
}

// assess is AssessQuality, observing each in-component pair bound into
// hGrad and its m~s slack into hSlack when they are non-nil. With pairs
// non-nil the histograms see the declared pairs instead.
func assess(res *Result, pairs [][2]int, hGrad, hSlack *obs.Histogram) QualityReport {
	rep := QualityReport{}
	if res.MS == nil {
		for ci, a := range res.ComponentPrecision {
			if math.IsInf(a, 1) {
				continue
			}
			if a > rep.Achieved {
				rep.Achieved = a
			}
			lb := a // a Result built without bounds reads as solved exactly
			if ci < len(res.ComponentLowerBound) {
				lb = res.ComponentLowerBound[ci]
			}
			if lb > rep.Optimal {
				rep.Optimal = lb
			}
		}
		rep.Ratio = qualityRatio(rep.Achieved, rep.Optimal)
		return rep
	}
	sweep := hGrad != nil && pairs == nil
	for ci, comp := range res.Components {
		a := res.ComponentPrecision[ci]
		if math.IsInf(a, 1) {
			continue
		}
		if a > rep.Optimal {
			rep.Optimal = a
		}
		for i, p := range comp {
			for _, q := range comp[i+1:] {
				b := pairBoundRaw(res, p, q)
				if b > rep.Achieved {
					rep.Achieved = b
				}
				rep.Pairs++
				if sweep {
					hGrad.Observe(b)
					hSlack.Observe(2*a - (res.MS[p][q] + res.MS[q][p]))
				}
			}
		}
	}
	if hGrad != nil && pairs != nil {
		n := len(res.Corrections)
		compPrec := make([]float64, n)
		for i := range compPrec {
			compPrec[i] = math.Inf(1)
		}
		for ci, comp := range res.Components {
			for _, p := range comp {
				compPrec[p] = res.ComponentPrecision[ci]
			}
		}
		for _, pr := range pairs {
			p, q := pr[0], pr[1]
			if p < 0 || q < 0 || p >= n || q >= n || p == q {
				continue
			}
			a := compPrec[p]
			if math.IsInf(a, 1) || math.IsInf(res.MS[p][q], 1) || math.IsInf(res.MS[q][p], 1) {
				continue // cross-component or unconstrained pair
			}
			hGrad.Observe(pairBoundRaw(res, p, q))
			hSlack.Observe(2*a - (res.MS[p][q] + res.MS[q][p]))
		}
	}
	rep.Ratio = qualityRatio(rep.Achieved, rep.Optimal)
	return rep
}

// qualityRatio is achieved/optimal with the degenerate zero-precision
// case (singletons, exact clocks) reporting a perfect 1.
func qualityRatio(achieved, optimal float64) float64 {
	if optimal == 0 {
		if achieved == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return achieved / optimal
}

// qualityName is a quality metric's name, labeled session="label" when
// label is non-empty.
func qualityName(base, label string) string {
	if label == "" {
		return base
	}
	return obs.Labeled(base, "session", label)
}

// PublishQuality computes the report for a solved instance (see
// AssessQuality) and records it into reg (obs.Default when nil):
//
//   - gauges quality.precision.{achieved,optimal,ratio};
//   - histogram quality.gradient.pair — the per-neighbor gradient
//     precision (the Kuhn–Lenzen–Locher–Oshman metric): PairBound over
//     the declared links when pairs is non-nil, over all in-component
//     pairs otherwise;
//   - histogram quality.link.slack — per-link slack of the m~s envelope,
//     2·A_max − (m~s(p,q) + m~s(q,p)) ≥ 0, zero exactly on the critical
//     cycle's 2-cycles (links with no room before they would bind the
//     optimum).
//
// A result without an m~s matrix publishes the gauges only, from the
// λ̂ / λ_B bracket. When label is non-empty every metric carries a
// session="label" pair. pairs entries outside a sync component (or out
// of range) are skipped.
func PublishQuality(res *Result, pairs [][2]int, label string, reg *obs.Registry) QualityReport {
	if reg == nil {
		reg = obs.Default
	}
	var hGrad, hSlack *obs.Histogram
	if res.MS != nil {
		hGrad = reg.Histogram(qualityName("quality.gradient.pair", label), obs.DefTimeBuckets)
		hSlack = reg.Histogram(qualityName("quality.link.slack", label), obs.DefTimeBuckets)
	}
	rep := assess(res, pairs, hGrad, hSlack)
	reg.Gauge(qualityName("quality.precision.achieved", label)).Set(rep.Achieved)
	reg.Gauge(qualityName("quality.precision.optimal", label)).Set(rep.Optimal)
	reg.Gauge(qualityName("quality.precision.ratio", label)).Set(rep.Ratio)
	return rep
}

// linkPairs extracts the unordered endpoint pairs of a link set for
// PublishQuality's gradient histogram.
func linkPairs(links []Link) [][2]int {
	if len(links) == 0 {
		return nil
	}
	pairs := make([][2]int, len(links))
	for i, l := range links {
		pairs[i] = [2]int{int(l.P), int(l.Q)}
	}
	return pairs
}
