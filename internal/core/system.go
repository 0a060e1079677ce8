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
	if err := mlsMatrixInto(&d, n, links, tab, opts); err != nil {
		return nil, err
	}
	mls := graph.NewMatrix(n, 0)
	for i := 0; i < n; i++ {
		copy(mls[i], d.Row(i))
	}
	return mls, nil
}

// mlsMatrixInto is MLSMatrix writing into a reusable dense matrix; the
// allocation-free core used by Synchronizer.SyncSystem. Theorem 5.6:
// multiple assumptions on a pair intersect, so weights combine by minimum.
func mlsMatrixInto(d *graph.Dense, n int, links []Link, tab *trace.Table, opts MLSOptions) error {
	d.Reset(n)
	d.Fill(graph.Inf)
	d.FillDiag(0)
	return eachMLS(n, links, tab, opts, func(p, q int, w float64) error {
		d.Set(p, q, math.Min(d.At(p, q), w))
		return nil
	})
}

// eachMLS reduces the trace to estimated maximal local shifts under the
// per-link assumptions and hands every directed weight p -> q to sink:
// both directions of each link, then, with AssumeNonnegative, both
// directions of every observed pair under NoBounds. A pair with several
// assumptions yields several weights; the sink combines them. The first
// error, from validation or from sink, stops the walk.
func eachMLS(n int, links []Link, tab *trace.Table, opts MLSOptions, sink func(p, q int, w float64) error) error {
	if tab != nil && tab.N() != n {
		return fmt.Errorf("core: trace table covers %d processors, want %d", tab.N(), n)
	}
	empty := trace.NewDirStats()
	for _, l := range links {
		if err := l.Validate(n); err != nil {
			return err
		}
		pq, qp := empty, empty
		if tab != nil {
			pq = tab.Stats(l.P, l.Q)
			qp = tab.Stats(l.Q, l.P)
		}
		mlsPQ, mlsQP := l.A.MLS(pq, qp)
		if math.IsNaN(mlsPQ) || math.IsNaN(mlsQP) {
			return fmt.Errorf("core: assumption %v on (p%d,p%d) produced NaN local shift", l.A, l.P, l.Q)
		}
		p, q := int(l.P), int(l.Q)
		if err := sink(p, q, mlsPQ); err != nil {
			return err
		}
		if err := sink(q, p, mlsQP); err != nil {
			return err
		}
	}
	if !opts.AssumeNonnegative || tab == nil {
		return nil
	}
	nb := delay.NoBounds()
	var err error
	tab.Pairs(func(p, q model.ProcID, pq, qp trace.DirStats) {
		if err != nil {
			return
		}
		mlsPQ, mlsQP := nb.MLS(pq, qp)
		if err = sink(int(p), int(q), mlsPQ); err == nil {
			err = sink(int(q), int(p), mlsQP)
		}
	})
	return err
}

// SynchronizeSystem is the end-to-end entry point: reduce the trace to
// local shifts under the system's assumptions, then run GLOBAL ESTIMATES
// and SHIFTS.
//
// Like Synchronize, it draws a warmed-up Synchronizer from a process-wide
// pool and returns a detached Result that is safe to retain.
func SynchronizeSystem(n int, links []Link, tab *trace.Table, mopts MLSOptions, opts Options) (*Result, error) {
	s := synchronizerPool.Get().(*Synchronizer)
	res, err := s.SyncSystem(n, links, tab, mopts, opts)
	if err != nil {
		synchronizerPool.Put(s)
		return nil, err
	}
	out := res.Clone()
	synchronizerPool.Put(s)
	return out, nil
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
