package core

import (
	"fmt"
	"math"
	"time"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// Solver-selection thresholds. SolverAuto routes small or dense instances
// through the flat-matrix pipeline (whose outputs are the historical
// reference, bit for bit) and large sparse instances through the CSR
// pipeline, escalating to the hierarchical solver only for components too
// big to close exactly.
const (
	// defaultClusterSize is the hierarchical solver's target cluster size
	// when Options.ClusterSize is zero.
	defaultClusterSize = 256
	// autoDenseMaxN: SolverAuto uses the dense backend for any n at or
	// below this, keeping every historical scenario bit-identical.
	autoDenseMaxN = 512
	// autoDenseDensity: above this edge density the closure is
	// effectively dense and the flat pipeline's cache behavior wins.
	autoDenseDensity = 0.25
	// autoExactCompMax: SolverAuto closes components up to this size
	// exactly (a k×k dense closure, at most 32 MiB) and uses the
	// hierarchical solver beyond.
	autoExactCompMax = 2048
	// msMaterializeMax: largest n for which the sparse pipeline
	// materializes the block-diagonal m~s matrix into the Result (8 MiB);
	// beyond it Result.MS is nil.
	msMaterializeMax = 1024
)

// clusterSizeOrDefault resolves Options.ClusterSize.
func (o *Options) clusterSizeOrDefault() int {
	if o.ClusterSize > 0 {
		return o.ClusterSize
	}
	return defaultClusterSize
}

// hierThreshold returns the component size above which the sparse
// pipeline switches from the exact per-component closure to the
// hierarchical solver, per the selected Solver.
func hierThreshold(opts *Options) int {
	switch opts.Solver {
	case SolverHierarchical:
		return opts.clusterSizeOrDefault()
	case SolverSparse, SolverDense:
		return math.MaxInt
	default: // SolverAuto
		t := autoExactCompMax
		if cs := opts.clusterSizeOrDefault(); cs > t {
			t = cs
		}
		return t
	}
}

// useDense is the one backend choice for row-matrix and system inputs
// of n nodes: SolverDense is dense, SolverSparse and SolverHierarchical
// are not, and SolverAuto is dense up to autoDenseMaxN nodes and beyond
// that when nnz, the count of finite off-diagonal m~ls entries, reaches
// autoDenseDensity of n². nnz runs only in that last case, so each input
// counts its entries however costs it least.
func useDense(solver Solver, n int, nnz func() int) bool {
	switch solver {
	case SolverDense:
		return true
	case SolverAuto:
		return n <= autoDenseMaxN || float64(nnz()) >= autoDenseDensity*float64(n)*float64(n)
	}
	return false
}

// scatterCSR writes g's edges into the dense matrix d (which the caller
// has pre-filled); used when Auto measures a system dense on its CSR.
func scatterCSR(g *graph.CSR, d *graph.Dense) {
	for u := 0; u < g.N(); u++ {
		cols, wgts := g.Row(u)
		row := d.Row(u)
		for e, v := range cols {
			row[v] = wgts[e]
		}
	}
}

// mlsCSRInto is the sparse counterpart of mlsMatrixInto: it reduces the
// trace to estimated maximal local shifts under the per-link assumptions
// directly into CSR form — O(links + observed pairs) work and memory,
// never an n×n matrix. eachMLS stages one edge per direction of each link
// and of each observed pair no link covers, so only duplicate links stage
// a direction twice; Build combines those by minimum, exactly the
// Theorem 5.6 intersection the dense assembly applies.
func mlsCSRInto(g *graph.CSR, covered *[]bool, n int, links []Link, tab *trace.Table, opts MLSOptions) error {
	g.Reset(n)
	err := eachMLS(covered, n, links, tab, opts, func(p, q int, w float64) error {
		if err := g.AddEdge(p, q, w); err != nil {
			return fmt.Errorf("core: mls[%d][%d]: %v", p, q, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.Build()
	return nil
}

// phaseTimer accumulates per-stage durations for the observer on the
// serial component path (nil when no observer is attached; mark, addKarp
// and addCorr are nil-safe, so callers mark phases unconditionally).
type phaseTimer struct {
	clk  obs.Clock
	karp time.Duration
	corr time.Duration
}

// mark returns the current instant (zero when untimed).
func (t *phaseTimer) mark() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clk.Now()
}

// lap returns the span since *m and advances m; t must be non-nil.
func (t *phaseTimer) lap(m *time.Time) time.Duration {
	now := t.clk.Now()
	d := now.Sub(*m)
	*m = now
	return d
}

// addKarp accrues the span since *m to the karp_amax phase and advances m.
func (t *phaseTimer) addKarp(m *time.Time) {
	if t != nil {
		t.karp += t.lap(m)
	}
}

// addCorr accrues the span since *m to the corrections phase and advances m.
func (t *phaseTimer) addCorr(m *time.Time) {
	if t != nil {
		t.corr += t.lap(m)
	}
}

// splitCSR is the CSR backend's component split: sync components from
// the adjacency SCC (identical to the dense closure's, since mutual
// reachability is closure-invariant), the local index map, and the
// per-solve state of the component solves. It returns the component size
// above which a component goes to the hierarchical solver, and whether
// the block-diagonal m~s is materialized (withMS, sized here).
func (s *Synchronizer) splitCSR(a *resultArena, g *graph.CSR, opts *Options) (thresh int, withMS bool) {
	n := g.N()
	nc := graph.SCCCSR(g, &s.scc)
	s.layoutComponents(a, n, nc)
	grow(&s.localIdx, n)
	maxComp := 0
	for _, comp := range a.comps {
		if len(comp) > maxComp {
			maxComp = len(comp)
		}
		for i, v := range comp {
			s.localIdx[v] = i
		}
	}
	thresh = hierThreshold(opts)
	if maxComp > thresh {
		// The hierarchical solver partitions over the undirected
		// adjacency; build the transpose once, outside any lane fan-out.
		g.TransposeInto(&s.csrT)
	}
	withMS = n <= msMaterializeMax && maxComp <= thresh
	if withMS {
		a.ms.Reset(n)
		a.ms.Fill(graph.Inf)
		a.ms.FillDiag(0)
	}
	// Pre-grow the shared identity permutation to the largest size any
	// component solve can request (exact Karp subsets and the hierarchical
	// cluster/boundary subsets are all bounded by the component size):
	// ident() is then a read-only slice below the lane fan-out.
	s.ident(maxComp)
	grow(&s.clusterKarp, nc)
	clear(s.clusterKarp)
	if cap(s.hierQ) < nc {
		s.hierQ = make([][]float64, nc)
	}
	s.hierQ = s.hierQ[:nc]
	clear(s.hierQ)
	return thresh, withMS
}

// ident returns the identity permutation 0..k-1, grown lazily.
func (s *Synchronizer) ident(k int) []int {
	if cap(s.identity) < k {
		s.identity = make([]int, k)
		for i := range s.identity {
			s.identity[i] = i
		}
	}
	if len(s.identity) < k {
		old := len(s.identity)
		s.identity = s.identity[:k]
		for i := old; i < k; i++ {
			s.identity[i] = i
		}
	}
	return s.identity[:k]
}
