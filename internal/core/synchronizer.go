package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// Synchronizer runs the SHIFTS pipeline (GLOBAL ESTIMATES, Karp A_max,
// correction distances) on flat matrices with every scratch buffer owned
// and reused: the dense m~s matrix, the Karp walk table, Bellman-Ford
// distance and predecessor arrays, and the component worklists. After the
// buffers have warmed up to the largest system seen, repeated Sync calls
// allocate nothing, and with Options.Parallelism > 1 the heavy kernels run
// on a bounded worker pool with bit-identical output to the serial path.
//
// Reuse contract: the Result returned by Sync or SyncSystem (including
// every slice it references) remains valid until the SECOND following call
// on the same Synchronizer — results are double-buffered, so two
// back-to-back calls never alias each other. Callers that retain results
// longer must Clone them. A Synchronizer must not be used from multiple
// goroutines concurrently.
//
// The zero value is ready to use. Close releases the worker pool; it is
// also released automatically when the Synchronizer is garbage collected.
type Synchronizer struct {
	pool     *graph.Pool
	poolSize int

	scc      graph.SCCScratch
	kits     []*compKit
	compSize []int
	compPos  []int
	order    []int
	compErr  []error

	// Sparse-pipeline state: the CSR m~ls adjacency, its transpose (built
	// when the hierarchical solver needs undirected partitioning), the
	// node -> local component index map, an identity permutation for local
	// kernels, and the per-component certified lower bounds + per-cluster
	// quality samples of the hierarchical solver, and per component the
	// number of clusters whose A_max fell back to Karp.
	csr         graph.CSR
	csrT        graph.CSR
	localIdx    []int
	identity    []int
	lowerB      []float64
	hierQ       [][]float64
	clusterKarp []int

	arenas [2]resultArena
	flip   int
}

// compKit is the per-lane scratch for one component's A_max and correction
// computation, so disconnected components can be processed in parallel.
type compKit struct {
	karp     graph.KarpScratch
	ms       graph.Dense // sparse path: the component-local m~s closure
	w        graph.Dense // correction weights aMax - m~s, diagonal +Inf
	wT       graph.Dense // transpose, for the reverse pass of centered mode
	dist     []float64
	distTo   []float64
	parent   []int
	parentTo []int
}

// resultArena backs one exposed Result. Two arenas alternate so
// back-to-back Sync calls never alias.
type resultArena struct {
	ms       graph.Dense
	msRows   [][]float64
	corr     []float64
	compFlat []int
	comps    [][]int
	prec     []float64
	cycle    []int
	res      Result
}

// NewSynchronizer returns a ready Synchronizer. Equivalent to new(Synchronizer).
func NewSynchronizer() *Synchronizer { return &Synchronizer{} }

// Close releases the worker pool goroutines, if any. The Synchronizer
// stays usable; a later parallel call recreates the pool.
func (s *Synchronizer) Close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
		s.poolSize = 0
		runtime.SetFinalizer(s, nil)
	}
}

// ensurePool resolves Options.Parallelism (0 means GOMAXPROCS) and
// (re)builds the worker pool when the requested width changed.
func (s *Synchronizer) ensurePool(want int) *graph.Pool {
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	if want == s.poolSize {
		return s.pool
	}
	s.Close()
	s.poolSize = want
	s.pool = graph.NewPool(want)
	if s.pool != nil {
		// Backstop for callers that drop the Synchronizer without Close:
		// the workers reference only the pool, never s, so s stays
		// collectable and the finalizer can release them.
		runtime.SetFinalizer(s, (*Synchronizer).Close)
	}
	return s.pool
}

// Sync runs the full pipeline on a matrix of estimated maximal local
// shifts. See the Synchronizer reuse contract for the lifetime of the
// returned Result.
func (s *Synchronizer) Sync(mls [][]float64, opts Options) (*Result, error) {
	timed := opts.Observer != nil
	var mark time.Time
	if timed {
		mark = opts.clock().Now()
	}
	if err := validateMatrix(mls); err != nil {
		return nil, err
	}
	n := len(mls)
	if resolveSolverMatrix(opts, mls) == SolverDense {
		a := s.nextArena(n, true)
		for i, row := range mls {
			copy(a.ms.Row(i), row)
		}
		a.ms.FillDiag(0)
		res, err := s.run(a, n, opts, mark)
		if err == nil && opts.Quality {
			PublishQuality(res, nil, opts.QualityLabel, nil)
		}
		return res, err
	}
	a := s.nextArena(n, false)
	s.csr.Reset(n)
	for i, row := range mls {
		for j, x := range row {
			if i == j || math.IsInf(x, 1) {
				continue
			}
			if err := s.csr.AddEdge(i, j, x); err != nil {
				return nil, err
			}
		}
	}
	s.csr.Build()
	res, err := s.runSparse(a, &s.csr, opts, mark)
	if err == nil && opts.Quality {
		s.publishSparseQuality(res, nil, opts.QualityLabel)
	}
	return res, err
}

// SyncSystem is the end-to-end entry point on a Synchronizer: reduce the
// trace to local shifts under the system's assumptions directly into the
// dense scratch, then run the pipeline. Same reuse contract as Sync.
func (s *Synchronizer) SyncSystem(n int, links []Link, tab *trace.Table, mopts MLSOptions, opts Options) (*Result, error) {
	timed := opts.Observer != nil
	var mark time.Time
	if timed {
		mark = opts.clock().Now()
	}
	solver := opts.Solver
	if solver == SolverAuto && n <= autoDenseMaxN {
		solver = SolverDense
	}
	if solver == SolverDense {
		a := s.nextArena(n, true)
		if err := mlsMatrixInto(&a.ms, n, links, tab, mopts); err != nil {
			return nil, err
		}
		if timed {
			clk := opts.clock()
			opts.Observer.ObservePhase("mls", clk.Now().Sub(mark).Seconds())
			mark = clk.Now()
		}
		if err := validateDense(&a.ms); err != nil {
			return nil, err
		}
		a.ms.FillDiag(0)
		res, err := s.run(a, n, opts, mark)
		if err == nil && opts.Quality {
			PublishQuality(res, linkPairs(links), opts.QualityLabel, nil)
		}
		return res, err
	}

	// Sparse family: assemble m~ls directly as CSR — O(links) work and
	// memory, never an n×n matrix.
	a := s.nextArena(n, false)
	if err := mlsCSRInto(&s.csr, n, links, tab, mopts); err != nil {
		return nil, err
	}
	if timed {
		clk := opts.clock()
		opts.Observer.ObservePhase("mls", clk.Now().Sub(mark).Seconds())
		mark = clk.Now()
	}
	if solver == SolverAuto && float64(s.csr.Nnz()) >= autoDenseDensity*float64(n)*float64(n) {
		// The instance turned out dense; the flat pipeline wins there.
		a.ms.Reset(n)
		a.ms.Fill(graph.Inf)
		a.ms.FillDiag(0)
		scatterCSR(&s.csr, &a.ms)
		res, err := s.run(a, n, opts, mark)
		if err == nil && opts.Quality {
			PublishQuality(res, linkPairs(links), opts.QualityLabel, nil)
		}
		return res, err
	}
	res, err := s.runSparse(a, &s.csr, opts, mark)
	if err == nil && opts.Quality {
		s.publishSparseQuality(res, linkPairs(links), opts.QualityLabel)
	}
	return res, err
}

// SyncCSR runs the pipeline on a prepared CSR adjacency of estimated
// maximal local shifts (diagonal implicitly zero, absent pairs +Inf) —
// the entry point for callers that assemble very large sparse systems
// themselves. The dense backend is never used regardless of
// Options.Solver (SolverDense routes to the exact sparse per-component
// path, which is bit-identical anyway); the reuse contract is that of
// Sync. g is read, never retained.
func (s *Synchronizer) SyncCSR(g *graph.CSR, opts Options) (*Result, error) {
	timed := opts.Observer != nil
	var mark time.Time
	if timed {
		mark = opts.clock().Now()
	}
	g.Build()
	a := s.nextArena(g.N(), false)
	res, err := s.runSparse(a, g, opts, mark)
	if err == nil && opts.Quality {
		s.publishSparseQuality(res, nil, opts.QualityLabel)
	}
	return res, err
}

// nextArena flips the double buffer and sizes the fixed-shape buffers.
// withMS sizes the n×n m~s matrix eagerly (the dense pipeline); the
// sparse pipeline passes false so no O(n^2) buffer ever exists and
// decides later whether to materialize a block-diagonal m~s.
func (s *Synchronizer) nextArena(n int, withMS bool) *resultArena {
	a := &s.arenas[s.flip]
	s.flip ^= 1
	if withMS {
		a.ms.Reset(n)
	} else {
		a.ms.Reset(0)
	}
	a.corr = growFloats(a.corr, n)
	a.compFlat = growInts(a.compFlat, n)
	a.cycle = a.cycle[:0]
	a.res = Result{}
	return a
}

// run executes estimate closure, component split, A_max, and corrections
// on a prepared arena. mark is the start of the "estimate" phase.
func (s *Synchronizer) run(a *resultArena, n int, opts Options, mark time.Time) (*Result, error) {
	if opts.Root < 0 || (n > 0 && opts.Root >= n) {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", opts.Root, n)
	}
	timed := opts.Observer != nil
	var clk obs.Clock
	if timed {
		clk = opts.clock()
	}
	pool := s.ensurePool(opts.Parallelism)

	// GLOBAL ESTIMATES (Theorem 5.5): shortest-path closure of m~ls.
	if err := graph.FloydWarshallDense(&a.ms, pool); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if timed {
		opts.Observer.ObservePhase("estimate", clk.Now().Sub(mark).Seconds())
	}

	s.buildComponents(a, n)
	a.msRows = a.ms.RowsInto(a.msRows)
	res := &a.res
	res.Corrections = a.corr
	res.MS = a.msRows
	res.Components = a.comps
	res.ComponentPrecision = a.prec

	// SHIFTS per sync component. Disconnected components are independent,
	// so with a pool and no observer (whose per-phase attribution needs
	// the serial order) they fan out across lanes with per-lane scratch.
	single := len(a.comps) == 1
	if pool != nil && len(a.comps) > 1 && !timed {
		if err := s.runComponentsParallel(a, pool, opts); err != nil {
			return nil, err
		}
	} else {
		var karpDur, corrDur time.Duration
		kit := s.kit(0)
		for ci, comp := range a.comps {
			if timed {
				mark = clk.Now()
			}
			aMax, cycle := s.componentAMax(kit, &a.ms, comp, pool)
			if timed {
				karpDur += clk.Now().Sub(mark)
			}
			a.prec[ci] = aMax
			if timed {
				mark = clk.Now()
			}
			if err := s.componentCorrections(kit, &a.ms, comp, aMax, opts, a.corr, pool); err != nil {
				return nil, err
			}
			if timed {
				corrDur += clk.Now().Sub(mark)
			}
			if single {
				res.Precision = aMax
				if cycle != nil {
					a.cycle = append(a.cycle[:0], cycle...)
					res.CriticalCycle = a.cycle
				}
			}
		}
		if timed {
			opts.Observer.ObservePhase("karp_amax", karpDur.Seconds())
			opts.Observer.ObservePhase("corrections", corrDur.Seconds())
		}
	}
	if !single {
		res.Precision = math.Inf(1)
	}
	return res, nil
}

// buildComponents partitions processors into maximal sets with mutually
// finite m~s (the strongly connected components of the finite-weight
// digraph), members ascending, components ordered by smallest member —
// all into arena storage.
func (s *Synchronizer) buildComponents(a *resultArena, n int) {
	nc := graph.SCCDense(&a.ms, &s.scc)
	s.layoutComponents(a, n, nc)
}

// layoutComponents lays the component partition recorded in s.scc.CompOf
// out into arena storage: members ascending, components ordered by
// smallest member. Shared by the dense (closure SCC) and sparse
// (adjacency SCC) pipelines — the two partitions are identical because
// mutual reachability is closure-invariant.
func (s *Synchronizer) layoutComponents(a *resultArena, n, nc int) {
	s.compSize = growInts(s.compSize, nc)
	s.compPos = growInts(s.compPos, nc)
	s.order = growInts(s.order, nc)
	s.compErr = growErrs(s.compErr, nc)
	for c := 0; c < nc; c++ {
		s.compSize[c] = 0
		s.order[c] = c
		s.compErr[c] = nil
	}
	compOf := s.scc.CompOf
	for v := 0; v < n; v++ {
		s.compSize[compOf[v]]++
	}
	// Smallest member of component c is the first node v (ascending) with
	// compOf[v] == c; record it in compPos temporarily for the ordering.
	for c := 0; c < nc; c++ {
		s.compPos[c] = n
	}
	for v := n - 1; v >= 0; v-- {
		s.compPos[compOf[v]] = v
	}
	slices.SortFunc(s.order, func(x, y int) int { return s.compPos[x] - s.compPos[y] })

	if cap(a.comps) < nc {
		a.comps = make([][]int, nc)
	}
	a.comps = a.comps[:nc]
	a.prec = growFloats(a.prec, nc)
	off := 0
	for rank, c := range s.order {
		a.comps[rank] = a.compFlat[off : off : off+s.compSize[c]]
		s.compPos[c] = rank
		off += s.compSize[c]
	}
	// Bucketing nodes in ascending order yields ascending members per
	// component for free.
	for v := 0; v < n; v++ {
		rank := s.compPos[compOf[v]]
		a.comps[rank] = append(a.comps[rank], v)
	}
}

// runComponentsParallel fans the per-component work across pool lanes with
// per-lane scratch kits. Output locations are disjoint per component, so
// results are bit-identical to the serial order; the lowest-index
// component error wins, also deterministically.
func (s *Synchronizer) runComponentsParallel(a *resultArena, pool *graph.Pool, opts Options) error {
	nc := len(a.comps)
	lanes := pool.Lanes()
	if lanes > nc {
		lanes = nc
	}
	s.kit(lanes - 1) // grow the kit set before the lanes race to it
	pool.Run(lanes, func(part int) {
		kit := s.kits[part]
		for ci := part; ci < nc; ci += lanes {
			comp := a.comps[ci]
			// Inner kernels run serial: the pool's lanes are spoken for.
			aMax, _ := s.componentAMax(kit, &a.ms, comp, nil)
			a.prec[ci] = aMax
			s.compErr[ci] = s.componentCorrections(kit, &a.ms, comp, aMax, opts, a.corr, nil)
		}
	})
	for ci := 0; ci < nc; ci++ {
		if s.compErr[ci] != nil {
			return s.compErr[ci]
		}
	}
	return nil
}

// componentAMax computes A_max for one sync component: the maximum mean
// cycle of m~s over the complete digraph on the component (Theorem 4.6).
// The returned cycle aliases kit scratch.
func (s *Synchronizer) componentAMax(kit *compKit, ms *graph.Dense, comp []int, pool *graph.Pool) (float64, []int) {
	if len(comp) <= 1 {
		return 0, nil
	}
	mc, ok := graph.MaxMeanCycleDense(ms, comp, &kit.karp, pool)
	if !ok {
		return 0, nil
	}
	return mc.Mean, mc.Cycle
}

// componentCorrections implements step 2 of SHIFTS on one component:
// corrections are dist_w(root, p) with w(p,q) = aMax - m~s(p,q) (no
// negative cycles by the definition of A_max); centered mode uses
// (dist_w(root,p) - dist_w(p,root))/2, running the forward and reverse
// Bellman-Ford passes on two lanes when a pool is available.
func (s *Synchronizer) componentCorrections(kit *compKit, ms *graph.Dense, comp []int, aMax float64, opts Options, out []float64, pool *graph.Pool) error {
	k := len(comp)
	if k == 1 {
		out[comp[0]] = 0
		return nil
	}
	kit.w.Reset(k)
	for a, p := range comp {
		src := ms.Row(p)
		dst := kit.w.Row(a)
		for b, q := range comp {
			dst[b] = aMax - src[q]
		}
		dst[a] = graph.Inf // no self edges
	}
	return s.correctionsFromWeights(kit, comp, opts, out, pool)
}

// componentCorrectionsLocal is componentCorrections reading a
// component-local k×k closure (row a / column b are comp[a] / comp[b])
// instead of the global matrix — the sparse pipeline's variant. The
// weight construction touches the same float values in the same order,
// so corrections are bit-identical to the dense path.
func (s *Synchronizer) componentCorrectionsLocal(kit *compKit, localMs *graph.Dense, comp []int, aMax float64, opts Options, out []float64, pool *graph.Pool) error {
	k := len(comp)
	if k == 1 {
		out[comp[0]] = 0
		return nil
	}
	kit.w.Reset(k)
	for a := 0; a < k; a++ {
		src := localMs.Row(a)
		dst := kit.w.Row(a)
		for b := 0; b < k; b++ {
			dst[b] = aMax - src[b]
		}
		dst[a] = graph.Inf // no self edges
	}
	return s.correctionsFromWeights(kit, comp, opts, out, pool)
}

// correctionsFromWeights runs the Bellman-Ford step of SHIFTS on the
// prepared kit.w weights and scatters distances to the component's
// global slots.
func (s *Synchronizer) correctionsFromWeights(kit *compKit, comp []int, opts Options, out []float64, pool *graph.Pool) error {
	k := len(comp)
	rootLocal := 0
	if slices.Contains(comp, opts.Root) {
		rootLocal = slices.Index(comp, opts.Root)
	}
	kit.dist = growFloats(kit.dist, k)
	kit.parent = growInts(kit.parent, k)
	if !opts.Centered {
		if err := s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent); err != nil {
			return err
		}
		for a, p := range comp {
			out[p] = kit.dist[a]
		}
		return nil
	}
	kit.w.TransposeInto(&kit.wT)
	kit.distTo = growFloats(kit.distTo, k)
	kit.parentTo = growInts(kit.parentTo, k)
	var errFwd, errRev error
	if pool != nil {
		pool.Run(2, func(part int) {
			if part == 0 {
				errFwd = s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent)
			} else {
				errRev = s.rootDistancesDense(&kit.wT, rootLocal, kit.distTo, kit.parentTo)
			}
		})
	} else {
		errFwd = s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent)
		errRev = s.rootDistancesDense(&kit.wT, rootLocal, kit.distTo, kit.parentTo)
	}
	if errFwd != nil {
		return errFwd
	}
	if errRev != nil {
		return errRev
	}
	for a, p := range comp {
		out[p] = (kit.dist[a] - kit.distTo[a]) / 2
	}
	return nil
}

// rootDistancesDense runs dense Bellman-Ford and normalizes so the root's
// own distance is exactly zero (tiny negative cycle noise otherwise
// perturbs it).
func (s *Synchronizer) rootDistancesDense(w *graph.Dense, root int, dist []float64, parent []int) error {
	if err := graph.BellmanFordDense(w, root, dist, parent); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			// A_max is by construction the maximum cycle mean, so this can
			// only be numerical noise; treat as infeasible input.
			return fmt.Errorf("%w: correction weights have a negative cycle", ErrInfeasible)
		}
		return err
	}
	if r := dist[root]; r != 0 {
		for i := range dist {
			dist[i] -= r
		}
	}
	return nil
}

// kit returns the i-th per-lane scratch kit, growing the set lazily.
func (s *Synchronizer) kit(i int) *compKit {
	for len(s.kits) <= i {
		s.kits = append(s.kits, &compKit{})
	}
	return s.kits[i]
}

// Clone returns a deep copy of the Result that shares no memory with the
// receiver — the escape hatch for callers that retain arena-backed results
// beyond the Synchronizer reuse window.
func (r *Result) Clone() *Result {
	out := &Result{
		Precision:          r.Precision,
		Corrections:        slices.Clone(r.Corrections),
		ComponentPrecision: slices.Clone(r.ComponentPrecision),
		CriticalCycle:      slices.Clone(r.CriticalCycle),
	}
	if r.MS != nil {
		n := len(r.MS)
		out.MS = graph.NewMatrix(n, 0)
		for i, row := range r.MS {
			copy(out.MS[i], row)
		}
	}
	if r.Components != nil {
		total := 0
		for _, c := range r.Components {
			total += len(c)
		}
		flat := make([]int, 0, total)
		out.Components = make([][]int, len(r.Components))
		for i, c := range r.Components {
			start := len(flat)
			flat = append(flat, c...)
			out.Components[i] = flat[start:len(flat):len(flat)]
		}
	}
	return out
}

// validateDense mirrors validateMatrix for the flat layout.
func validateDense(m *graph.Dense) error {
	n := m.N()
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j, x := range row {
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

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growErrs(s []error, n int) []error {
	if cap(s) < n {
		return make([]error, n)
	}
	return s[:n]
}

// synchronizerPool backs the package-level Synchronize/SynchronizeSystem
// wrappers: repeated calls reuse warmed-up scratch across the process
// while still returning detached, caller-owned Results.
var synchronizerPool = sync.Pool{New: func() any { return NewSynchronizer() }}
