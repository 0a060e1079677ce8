// Package core implements the paper's clock synchronization algorithm:
//
//   - GLOBAL ESTIMATES (Theorem 5.5): all-pairs shortest paths over the
//     estimated maximal local shifts m~ls give the estimated maximal global
//     shifts m~s.
//   - SHIFTS (Theorem 4.6): the optimal precision A_max is the maximum mean
//     cycle of m~s over the complete digraph (computed with Karp's
//     algorithm), and optimal corrections are shortest-path distances from
//     an arbitrary root under weights w(p,q) = A_max - m~s(p,q).
//
// The achieved precision equals A_max on every instance, and by Theorem 4.4
// no correction function can do better: instance optimality.
//
// All inputs are *estimated* quantities (they fold in the unknown start
// times), exactly as the views provide them; see Lemma 4.5 and Theorem 5.5
// for why the estimates give the same A_max and valid corrections.
package core

import (
	"errors"
	"fmt"
	"math"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
)

// ErrInfeasible indicates that the supplied local-shift estimates admit no
// execution: some cycle has negative total estimated shift, which is
// impossible for estimates derived from a real execution (cycle sums of
// m~ls equal cycle sums of mls, which are non-negative).
var ErrInfeasible = errors.New("core: local shift estimates are infeasible (negative cycle)")

// Solver selects the backend of the synchronization pipeline.
type Solver int

const (
	// SolverAuto picks the backend from the instance: dense for small or
	// dense systems (n <= 512 or edge density above 25%), otherwise the
	// sparse CSR pipeline with per-component exact solves up to 2048
	// nodes and the two-level hierarchical solver beyond. Every solve
	// that routes to the dense backend is bit-identical to SolverDense.
	SolverAuto Solver = iota
	// SolverDense forces the flat-matrix pipeline: O(n^2) memory,
	// O(n^3) Floyd-Warshall. The reference backend.
	SolverDense
	// SolverSparse forces the CSR pipeline with exact per-component
	// solves: each sync component is closed with a dense Floyd-Warshall
	// on its own k×k submatrix, so memory is O(max component^2) instead
	// of O(n^2) and corrections are bit-identical to SolverDense.
	SolverSparse
	// SolverHierarchical forces the CSR pipeline with the two-level
	// solver for components larger than ClusterSize: clusters are solved
	// exactly in parallel, cluster boundary nodes are synchronized over
	// an exact contracted graph, and corrections compose. Precision is a
	// certified upper bound (>= the optimum) instead of the optimum
	// itself; components at most ClusterSize still solve exactly.
	SolverHierarchical
)

// String names the solver for logs and flags.
func (s Solver) String() string {
	switch s {
	case SolverDense:
		return "dense"
	case SolverSparse:
		return "sparse"
	case SolverHierarchical:
		return "hierarchical"
	default:
		return "auto"
	}
}

// Options tunes Synchronize.
type Options struct {
	// Root is the processor whose correction is fixed to zero (the paper's
	// arbitrary root r). Defaults to 0; per-component roots are the lowest
	// ids when the system splits into sync components.
	Root int

	// Centered selects symmetric corrections
	//
	//	f(p) = (dist_w(r,p) - dist_w(p,r)) / 2
	//
	// instead of the paper's f(p) = dist_w(r,p). Both vectors satisfy the
	// feasibility constraints f(q)-f(p) <= w(p,q) (the constraint set is
	// convex and both extremes are feasible), so both achieve the optimal
	// guaranteed precision A_max; the centered variant additionally
	// balances the realized discrepancy on the observed execution, e.g.
	// recovering exact skews when delays are symmetric.
	Centered bool

	// Observer, when non-nil, receives the wall-clock duration of each
	// pipeline phase: "estimate" (GLOBAL ESTIMATES, Theorem 5.5, with the
	// input's ingestion and the component split: the solve's span less
	// the other phases), "karp_amax" (the maximum-mean-cycle step of
	// SHIFTS, summed over sync components) and "corrections" (the
	// shortest-path step). SynchronizeSystem additionally reports "mls"
	// (trace reduction). Nil — the default — adds no timing calls to the
	// hot path.
	Observer obs.PhaseObserver

	// Quality enables post-solve quality telemetry: after every
	// successful solve the pipeline publishes the paper's figures of
	// merit — gauges quality.precision.{achieved,optimal,ratio} plus the
	// per-neighbor gradient and per-link slack histograms — into
	// obs.Default (see PublishQuality). Off by default: the computation
	// is O(n^2) over the result and touches the metrics registry.
	Quality bool

	// QualityLabel, when non-empty, attaches a session="..." label to
	// every quality metric so concurrent runs in one process stay
	// distinguishable.
	QualityLabel string

	// Solver selects the pipeline backend; see the Solver constants. The
	// default SolverAuto routes every instance with n <= 512 — in
	// particular every historical scenario — through the dense backend,
	// so existing outputs are bit-for-bit unchanged.
	Solver Solver

	// ClusterSize is the target cluster size of the hierarchical solver
	// (and the exactness threshold under SolverHierarchical: components
	// up to this size solve exactly). 0 means the default, 256.
	ClusterSize int

	// Parallelism bounds the worker lanes used by the graph kernels
	// (Floyd-Warshall row shards, Karp walk-table columns, the two
	// Bellman-Ford passes of centered mode, disconnected sync components,
	// and the clusters of a hierarchical component: their closures,
	// A_max checks and interior corrections). 0 means GOMAXPROCS; 1
	// forces the serial path. Results are bit-identical for every value.
	Parallelism int
}

// Result is the output of the synchronization pipeline.
type Result struct {
	// Corrections holds offset_p for each processor. The corrected logical
	// clock of p reads local clock + Corrections[p].
	Corrections []float64

	// Precision is the guaranteed (and optimal) bound on the corrected
	// clock discrepancy between any two processors over all executions
	// equivalent to the observed one: A_max. It is +Inf when the
	// constraint graph does not connect all processors.
	Precision float64

	// MS is the matrix of estimated maximal global shifts m~s(p,q)
	// produced by GLOBAL ESTIMATES. The sparse backends materialize it
	// block-diagonally (cross-component entries stay +Inf — exactly the
	// entries no bound or correction ever reads) and only up to n = 1024;
	// beyond that MS is nil and PairBound returns an error rather than
	// allocating an n×n matrix.
	MS [][]float64

	// Components lists the sync components (processor sets with mutually
	// finite m~s). With full connectivity there is a single component.
	Components [][]int

	// ComponentPrecision[i] is A_max restricted to Components[i]: the
	// optimum on an exactly solved component, the certified upper bound λ̂
	// on a hierarchically solved one.
	ComponentPrecision []float64

	// ComponentLowerBound[i] is a certified lower bound on the optimal
	// A_max of Components[i]: equal to ComponentPrecision[i] on an exactly
	// solved component, the contracted-graph bound λ_B on a hierarchically
	// solved one. The two bracket the optimum.
	ComponentLowerBound []float64

	// CriticalCycle is a cyclic processor sequence achieving A_max (first
	// element repeated at the end) for the single-component case; nil when
	// precision is +Inf or the cycle is degenerate.
	CriticalCycle []int
}

// GlobalEstimates implements function GLOBAL ESTIMATES (Theorem 5.5): given
// the matrix of estimated maximal local shifts (entries +Inf where a pair
// shares no constraint, diagonal ignored), it returns the matrix of
// estimated maximal global shifts via an all-pairs shortest-path
// computation. It returns ErrInfeasible if the input has a negative cycle.
func GlobalEstimates(mls [][]float64) ([][]float64, error) {
	if err := validateMatrix(mls); err != nil {
		return nil, err
	}
	d, err := graph.DenseFromRows(mls)
	if err != nil {
		return nil, err
	}
	d.FillDiag(0)
	if err := closeDense(d, nil); err != nil {
		return nil, err
	}
	return d.Rows(), nil
}

// AMax computes the optimal precision for a matrix of estimated global
// shifts restricted to the given processor subset: the maximum mean cycle
// of m~s over the complete digraph on the subset (Section 4.3/4.4). For a
// singleton subset it returns 0. The second return value is a cyclic
// processor sequence achieving the maximum (nil if degenerate).
func AMax(ms [][]float64, subset []int) (float64, []int) {
	if len(subset) <= 1 {
		return 0, nil
	}
	d, err := graph.DenseFromRows(ms)
	if err != nil {
		return 0, nil
	}
	var karp graph.KarpScratch
	mc, ok := graph.MaxMeanCycleDense(d, subset, &karp, nil)
	if !ok {
		return 0, nil
	}
	return mc.Mean, mc.Cycle
}

// Synchronize runs the full pipeline on a matrix of estimated maximal local
// shifts and returns optimal corrections with their precision.
//
// It is a convenience wrapper over a process-wide pool of Synchronizers:
// scratch buffers are reused across calls, and the returned Result is
// detached (shares no memory with the pool), so it may be retained
// indefinitely. Hot loops that want the zero-allocation steady state should
// hold their own Synchronizer and call Sync directly.
func Synchronize(mls [][]float64, opts Options) (*Result, error) {
	return solvePooled(&input{from: fromRows, n: len(mls), rows: mls}, opts)
}

func validateMatrix(m [][]float64) error {
	n := len(m)
	for i := range m {
		if len(m[i]) != n {
			return fmt.Errorf("core: mls matrix row %d has %d entries, want %d", i, len(m[i]), n)
		}
		for j, x := range m[i] {
			if i == j {
				continue
			}
			if math.IsNaN(x) {
				return fmt.Errorf("core: mls[%d][%d] is NaN", i, j)
			}
			if math.IsInf(x, -1) {
				return fmt.Errorf("core: mls[%d][%d] is -Inf", i, j)
			}
		}
	}
	return nil
}

// PairBound returns the tight guaranteed bound on the corrected-clock
// discrepancy between processors p and q over all admissible executions
// equivalent to the observed one:
//
//	max( m~s(p,q) + x_q - x_p,  m~s(q,p) + x_p - x_q ).
//
// The identity sup |(S'_p - x_p) - (S'_q - x_q)| = m~s(p,q) - x_p + x_q
// (for the ordered direction) follows from Claim 4.2 plus the definition
// of the estimates, so the bound is computable without ground truth.
// Within a sync component it is finite and never exceeds Precision (and
// some pair attains Precision exactly); across components it is +Inf.
func (r *Result) PairBound(p, q int) (float64, error) {
	n := len(r.Corrections)
	if p < 0 || p >= n || q < 0 || q >= n {
		return 0, fmt.Errorf("core: pair (%d,%d) out of range [0,%d)", p, q, n)
	}
	if p == q {
		return 0, nil
	}
	if r.MS == nil {
		return 0, fmt.Errorf("core: PairBound needs the m~s matrix, which the sparse solver does not materialize at n=%d (> 1024)", n)
	}
	fwd := r.MS[p][q] + r.Corrections[q] - r.Corrections[p]
	rev := r.MS[q][p] + r.Corrections[p] - r.Corrections[q]
	return math.Max(fwd, rev), nil
}
