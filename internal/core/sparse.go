package core

import (
	"errors"
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

// resolveSolverMatrix picks the backend for a row-matrix input: explicit
// choices are honored; Auto measures size and density.
func resolveSolverMatrix(opts Options, mls [][]float64) Solver {
	if opts.Solver != SolverAuto {
		return opts.Solver
	}
	n := len(mls)
	if n <= autoDenseMaxN {
		return SolverDense
	}
	nnz := 0
	for i, row := range mls {
		for j, x := range row {
			if i != j && !math.IsInf(x, 1) {
				nnz++
			}
		}
	}
	if float64(nnz) >= autoDenseDensity*float64(n)*float64(n) {
		return SolverDense
	}
	return SolverSparse
}

// scatterCSR writes g's edges into the dense matrix d (which the caller
// has pre-filled); used when Auto discovers a dense instance after the
// CSR assembly.
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
// never an n×n matrix. Duplicate assumptions on a pair combine by
// minimum at Build, exactly the Theorem 5.6 intersection the dense
// assembly applies.
func mlsCSRInto(g *graph.CSR, n int, links []Link, tab *trace.Table, opts MLSOptions) error {
	g.Reset(n)
	err := eachMLS(n, links, tab, opts, func(p, q int, w float64) error {
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
// serial sparse path (nil when no observer is attached; every method is
// nil-safe, so callers mark phases unconditionally).
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

// addKarp accrues the span since *m to the karp_amax phase and advances m.
func (t *phaseTimer) addKarp(m *time.Time) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.karp += now.Sub(*m)
	*m = now
}

// addCorr accrues the span since *m to the corrections phase and advances m.
func (t *phaseTimer) addCorr(m *time.Time) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.corr += now.Sub(*m)
	*m = now
}

// runSparse executes the CSR pipeline on a prepared arena: adjacency SCC
// split, then per component either an exact local dense closure + SHIFTS
// (bit-identical to the dense pipeline) or the two-level hierarchical
// solver for components above the solver's threshold.
func (s *Synchronizer) runSparse(a *resultArena, g *graph.CSR, opts Options, mark time.Time) (*Result, error) {
	timed := opts.Observer != nil
	var clk obs.Clock
	if timed {
		clk = opts.clock()
	}
	n := g.N()
	if opts.Root < 0 || (n > 0 && opts.Root >= n) {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", opts.Root, n)
	}
	pool := s.ensurePool(opts.Parallelism)

	// Sync components from the raw adjacency: identical to the dense
	// pipeline's closure SCC, since mutual reachability is
	// closure-invariant.
	nc := graph.SCCCSR(g, &s.scc)
	s.layoutComponents(a, n, nc)
	s.localIdx = growInts(s.localIdx, n)
	maxComp := 0
	for _, comp := range a.comps {
		if len(comp) > maxComp {
			maxComp = len(comp)
		}
		for i, v := range comp {
			s.localIdx[v] = i
		}
	}
	thresh := hierThreshold(&opts)
	if maxComp > thresh {
		// The hierarchical solver partitions over the undirected
		// adjacency; build the transpose once, outside any lane fan-out.
		g.TransposeInto(&s.csrT)
	}
	withMS := n <= msMaterializeMax && maxComp <= thresh
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
	s.lowerB = growFloats(s.lowerB, nc)
	if cap(s.hierQ) < nc {
		s.hierQ = make([][]float64, nc)
	}
	s.hierQ = s.hierQ[:nc]
	for i := range s.hierQ {
		s.hierQ[i] = nil
	}

	res := &a.res
	res.Corrections = a.corr
	res.Components = a.comps
	res.ComponentPrecision = a.prec
	if withMS {
		a.msRows = a.ms.RowsInto(a.msRows)
		res.MS = a.msRows
	}

	single := nc == 1
	if pool != nil && nc > 1 && !timed {
		if err := s.runSparseComponentsParallel(a, g, pool, opts, thresh, withMS); err != nil {
			return nil, err
		}
	} else {
		var t *phaseTimer
		if timed {
			t = &phaseTimer{clk: clk}
		}
		kit := s.kit(0)
		for ci, comp := range a.comps {
			cycle, err := s.solveSparseComponent(kit, g, a, ci, comp, opts, thresh, withMS, pool, t)
			if err != nil {
				return nil, err
			}
			if single {
				res.Precision = a.prec[ci]
				if cycle != nil {
					a.cycle = append(a.cycle[:0], cycle...)
					res.CriticalCycle = a.cycle
				}
			}
		}
		if timed {
			total := clk.Now().Sub(mark)
			est := total - t.karp - t.corr
			if est < 0 {
				est = 0
			}
			opts.Observer.ObservePhase("estimate", est.Seconds())
			opts.Observer.ObservePhase("karp_amax", t.karp.Seconds())
			opts.Observer.ObservePhase("corrections", t.corr.Seconds())
		}
	}
	if !single {
		res.Precision = math.Inf(1)
	}
	return res, nil
}

// runSparseComponentsParallel fans components across pool lanes with
// per-lane kits, exactly like the dense runComponentsParallel: disjoint
// outputs, deterministic lowest-index error.
func (s *Synchronizer) runSparseComponentsParallel(a *resultArena, g *graph.CSR, pool *graph.Pool, opts Options, thresh int, withMS bool) error {
	nc := len(a.comps)
	lanes := pool.Lanes()
	if lanes > nc {
		lanes = nc
	}
	s.kit(lanes - 1)
	pool.Run(lanes, func(part int) {
		kit := s.kits[part]
		for ci := part; ci < nc; ci += lanes {
			_, err := s.solveSparseComponent(kit, g, a, ci, a.comps[ci], opts, thresh, withMS, nil, nil)
			s.compErr[ci] = err
		}
	})
	for ci := 0; ci < nc; ci++ {
		if s.compErr[ci] != nil {
			return s.compErr[ci]
		}
	}
	return nil
}

// solveSparseComponent solves one sync component: exactly (local dense
// closure, identical floats to the dense pipeline) when it fits the
// threshold, hierarchically otherwise. It fills a.prec[ci], s.lowerB[ci]
// and the component's correction slots; the returned critical cycle (in
// global processor ids) aliases kit scratch and is only produced on the
// exact path.
func (s *Synchronizer) solveSparseComponent(kit *compKit, g *graph.CSR, a *resultArena, ci int, comp []int, opts Options, thresh int, withMS bool, pool *graph.Pool, t *phaseTimer) ([]int, error) {
	k := len(comp)
	if k == 1 {
		a.corr[comp[0]] = 0
		a.prec[ci] = 0
		s.lowerB[ci] = 0
		return nil, nil
	}
	if k > thresh {
		return nil, s.solveHierComponent(g, a, ci, comp, opts, pool, t)
	}

	// Exact path: extract the component-local m~ls submatrix and close it.
	// Shortest paths between same-component nodes never leave the
	// component, and Floyd-Warshall visits the surviving pivots in the
	// same ascending order, so the local closure reproduces the global
	// one bit for bit on this block.
	kit.ms.Reset(k)
	kit.ms.Fill(graph.Inf)
	kit.ms.FillDiag(0)
	c0 := s.scc.CompOf[comp[0]]
	for li, p := range comp {
		row := kit.ms.Row(li)
		cols, wgts := g.Row(p)
		for e, q := range cols {
			if s.scc.CompOf[q] == c0 {
				row[s.localIdx[q]] = wgts[e]
			}
		}
	}
	if err := graph.FloydWarshallDense(&kit.ms, pool); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if withMS {
		for li, p := range comp {
			src := kit.ms.Row(li)
			dst := a.ms.Row(p)
			for lj, q := range comp {
				dst[q] = src[lj]
			}
		}
	}

	var m time.Time
	if t != nil {
		m = t.clk.Now()
	}
	ident := s.ident(k)
	aMax, cycle := 0.0, []int(nil)
	if mc, ok := graph.MaxMeanCycleDense(&kit.ms, ident, &kit.karp, pool); ok {
		aMax = mc.Mean
		cycle = mc.Cycle
	}
	a.prec[ci] = aMax
	s.lowerB[ci] = aMax
	if t != nil {
		now := t.clk.Now()
		t.karp += now.Sub(m)
		m = now
	}
	if err := s.componentCorrectionsLocal(kit, &kit.ms, comp, aMax, opts, a.corr, pool); err != nil {
		return nil, err
	}
	if t != nil {
		t.corr += t.clk.Now().Sub(m)
	}
	// The cycle came back in local indices; translate in place.
	for i, v := range cycle {
		cycle[i] = comp[v]
	}
	return cycle, nil
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
