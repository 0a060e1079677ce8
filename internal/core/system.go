package core

import (
	"fmt"
	"math"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// Link binds a delay assumption to an unordered processor pair. The
// assumption's PQ direction is P -> Q. Multiple links may cover the same
// pair; their assumptions combine by Theorem 5.6 (pointwise minimum of
// local shifts).
type Link struct {
	P, Q model.ProcID
	A    delay.Assumption
}

// Validate checks the link's endpoints and assumption.
func (l Link) Validate(n int) error {
	if int(l.P) < 0 || int(l.P) >= n || int(l.Q) < 0 || int(l.Q) >= n {
		return fmt.Errorf("core: link (p%d,p%d) endpoint out of range [0,%d)", l.P, l.Q, n)
	}
	if l.P == l.Q {
		return fmt.Errorf("core: link (p%d,p%d) is a self loop", l.P, l.Q)
	}
	if l.A == nil {
		return fmt.Errorf("core: link (p%d,p%d) has nil assumption", l.P, l.Q)
	}
	return nil
}

// MLSOptions tunes MLSMatrix.
type MLSOptions struct {
	// AssumeNonnegative applies the no-bounds assumption (delays >= 0,
	// Corollary 6.4) to every directed pair with observed traffic, whether
	// or not an explicit link covers it. This is the physically safe
	// default: real message delays are never negative, so the extra
	// constraint is always sound and never loosens precision.
	AssumeNonnegative bool
}

// DefaultMLSOptions returns the recommended options.
func DefaultMLSOptions() MLSOptions { return MLSOptions{AssumeNonnegative: true} }

// MLSMatrix computes the matrix of estimated maximal local shifts for an
// n-processor system from per-link assumptions and a table of observed
// estimated-delay statistics. Entries without any applicable constraint are
// +Inf.
func MLSMatrix(n int, links []Link, tab *trace.Table, opts MLSOptions) ([][]float64, error) {
	var d graph.Dense
	if err := mlsMatrixInto(&d, new([]bool), n, links, tab, opts); err != nil {
		return nil, err
	}
	mls := graph.NewMatrix(n, 0)
	for i := 0; i < n; i++ {
		copy(mls[i], d.Row(i))
	}
	return mls, nil
}

// mlsMatrixInto is MLSMatrix writing into a reusable dense matrix, with
// covered as eachMLS's scratch; the allocation-free core used by
// Synchronizer.SyncSystem. Theorem 5.6: multiple assumptions on a pair
// intersect, so weights combine by minimum.
func mlsMatrixInto(d *graph.Dense, covered *[]bool, n int, links []Link, tab *trace.Table, opts MLSOptions) error {
	d.Reset(n)
	d.Fill(graph.Inf)
	d.FillDiag(0)
	return eachMLS(covered, n, links, tab, opts, func(p, q int, w float64) error {
		d.Set(p, q, min(d.At(p, q), w)) // eachMLS sinks no NaN
		return nil
	})
}

// eachMLS reduces the trace to estimated maximal local shifts under the
// per-link assumptions and hands every directed weight p -> q to sink. It
// visits each link once and sinks both of its directions (linkMLS), marking
// a link's pair covered when AssumeNonnegative applies to it. The walk of
// the table's pairs then sinks both directions of every observed pair that
// no link covers, under NoBounds alone. So without duplicate links each
// directed pair reaches sink at most once; duplicates yield one weight
// each, which the sink combines by minimum. covered is scratch, one mark
// per observed pair, grown as needed. The first error, from validation or
// from sink, stops the walk.
func eachMLS(covered *[]bool, n int, links []Link, tab *trace.Table, opts MLSOptions, sink func(p, q int, w float64) error) error {
	if tab != nil && tab.N() != n {
		return fmt.Errorf("core: trace table covers %d processors, want %d", tab.N(), n)
	}
	nonneg := opts.AssumeNonnegative && tab != nil
	var mark []bool
	if nonneg {
		mark = grow(covered, tab.NumPairs())
		clear(mark)
	}
	for _, l := range links {
		if err := l.Validate(n); err != nil {
			return err
		}
		mlsPQ, mlsQP, id, err := linkMLS(l, tab, nonneg)
		if err != nil {
			return err
		}
		if nonneg && id >= 0 {
			mark[id] = true
		}
		p, q := int(l.P), int(l.Q)
		if err := sink(p, q, mlsPQ); err != nil {
			return err
		}
		if err := sink(q, p, mlsQP); err != nil {
			return err
		}
	}
	nb := delay.NoBounds()
	for id, done := range mark {
		if done {
			continue
		}
		p, q, pq, qp := tab.PairAt(id)
		mlsPQ, mlsQP := nb.MLS(pq, qp)
		if err := sink(int(p), int(q), mlsPQ); err != nil {
			return err
		}
		if err := sink(int(q), int(p), mlsQP); err != nil {
			return err
		}
	}
	return nil
}

// linkMLS is the one per-link step of the m~ls reduction, shared by the
// batch walk (eachMLS) and Stream.Observe: the shifts (mls(P,Q), mls(Q,P))
// of the link's assumption on the statistics of its pair in tab (empty
// ones when tab is nil or the pair is silent), and the pair's rank in tab,
// -1 when silent. A NaN shift is an error. With nonneg, an observed pair
// also takes the minimum with the NoBounds shift (Corollary 6.4 and
// Theorem 5.6, exact and order-free).
func linkMLS(l Link, tab *trace.Table, nonneg bool) (mlsPQ, mlsQP float64, id int, err error) {
	pq, qp, id := emptyStats, emptyStats, -1
	if tab != nil {
		pq, qp, id = tab.Pair(l.P, l.Q)
	}
	mlsPQ, mlsQP = l.A.MLS(pq, qp)
	if math.IsNaN(mlsPQ) || math.IsNaN(mlsQP) {
		return 0, 0, id, fmt.Errorf("core: assumption %v on (p%d,p%d) produced NaN local shift", l.A, l.P, l.Q)
	}
	if nonneg && id >= 0 {
		// No operand is NaN, and on all others the builtin min agrees
		// with math.Min bit for bit, signed zeros included.
		nbPQ, nbQP := delay.NoBounds().MLS(pq, qp)
		mlsPQ, mlsQP = min(mlsPQ, nbPQ), min(mlsQP, nbQP)
	}
	return mlsPQ, mlsQP, id, nil
}

// emptyStats are the statistics of a direction without traffic.
var emptyStats = trace.NewDirStats()

// SynchronizeSystem is the end-to-end entry point: reduce the trace to
// local shifts under the system's assumptions, then run GLOBAL ESTIMATES
// and SHIFTS.
//
// Like Synchronize, it draws a warmed-up Synchronizer from a process-wide
// pool and returns a detached Result that is safe to retain.
func SynchronizeSystem(n int, links []Link, tab *trace.Table, mopts MLSOptions, opts Options) (*Result, error) {
	return solvePooled(&input{from: fromSystem, n: n, links: links, tab: tab, mopts: mopts}, opts)
}

// Rho evaluates the realized discrepancy rho(alpha, x) of Definition 2.1
// for corrections x in an execution with start times starts:
// max over pairs of |(S_p - x_p) - (S_q - x_q)|. This is the quantity the
// precision bound promises to dominate; only a simulator or test harness
// (which knows the true starts) can evaluate it.
func Rho(starts, corrections []float64) (float64, error) {
	if len(starts) != len(corrections) {
		return 0, fmt.Errorf("core: %d starts vs %d corrections", len(starts), len(corrections))
	}
	worst := 0.0
	for p := range starts {
		for q := p + 1; q < len(starts); q++ {
			d := math.Abs((starts[p] - corrections[p]) - (starts[q] - corrections[q]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// RhoOver is Rho over the processors keep selects, such as the ones a
// degraded run both synchronized and corrected.
func RhoOver(starts, corrections []float64, keep func(p int) bool) (float64, error) {
	if len(starts) != len(corrections) {
		return 0, fmt.Errorf("core: %d starts vs %d corrections", len(starts), len(corrections))
	}
	var s, x []float64
	for p := range starts {
		if keep(p) {
			s, x = append(s, starts[p]), append(x, corrections[p])
		}
	}
	return Rho(s, x)
}
