package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

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
// Sync, SyncSystem, SyncCSR and a Stream's batch solves share one
// ingestion step, which turns the input into a dense m~ls block or a CSR
// adjacency (for row matrices and systems useDense picks which), and one
// solve step. With an observer that step times "estimate" as the whole
// solve less the "mls" reduction, Karp and the corrections, so on both
// backends it includes the component split.
//
// Reuse contract: the Result returned by Sync, SyncSystem or SyncCSR
// (including every slice it references) remains valid until the SECOND
// following call on the same Synchronizer — results are double-buffered,
// so two back-to-back calls never alias each other. Callers that retain
// results longer must Clone them. A Synchronizer must not be used from
// multiple goroutines concurrently.
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

	// Sparse-pipeline state: the CSR m~ls adjacency, its transpose (built
	// when the hierarchical solver needs undirected partitioning), the
	// node -> local component index map, an identity permutation for local
	// kernels, the hierarchical solver's per-cluster quality samples, and
	// per component the number of clusters whose A_max fell back to Karp.
	csr         graph.CSR
	csrT        graph.CSR
	localIdx    []int
	identity    []int
	hierQ       [][]float64
	clusterKarp []int

	// covered marks the trace table's observed pairs that a link covers
	// while a system's m~ls is reduced (eachMLS).
	covered []bool

	arenas [2]resultArena
	flip   int

	// timer accumulates the observer's phase spans of the current solve.
	// It lives here because componentJob, which stripe may hand to the
	// lanes, would move a stack timer to the heap.
	timer phaseTimer
}

// compKit is the per-lane scratch of the block steps (closeBlock,
// componentAMax, correctionDistances), so disconnected components, and a
// hierarchical component's clusters, can be processed in parallel.
type compKit struct {
	karp     graph.KarpScratch
	ms       graph.Dense // sparse path: the component-local m~s closure, or the hierarchical boundary closure
	pos      []int       // closeBlock: each node's block index, -1 off the block
	w        graph.Dense // correction weights lam - m~s, diagonal +Inf
	wT       graph.Dense // transpose, for the reverse pass of centered mode
	dist     []float64
	distTo   []float64
	parent   []int
	parentTo []int
	err      error // stripe: this lane's first error, at index errAt
	errAt    int
	hier     hierScratch // the hierarchical solver's state when this kit is the caller's
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
	lowerB   []float64
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
	return result(s.solve(&input{from: fromRows, n: len(mls), rows: mls}, opts))
}

// SyncSystem is the end-to-end entry point on a Synchronizer: reduce the
// trace to local shifts under the system's assumptions directly into the
// chosen backend's scratch, then run the pipeline. Same reuse contract as
// Sync.
func (s *Synchronizer) SyncSystem(n int, links []Link, tab *trace.Table, mopts MLSOptions, opts Options) (*Result, error) {
	return result(s.solve(&input{from: fromSystem, n: n, links: links, tab: tab, mopts: mopts}, opts))
}

// SyncCSR runs the pipeline on a prepared CSR adjacency of estimated
// maximal local shifts (diagonal implicitly zero, absent pairs +Inf) —
// the entry point for callers that assemble very large sparse systems
// themselves. The dense backend is never used regardless of
// Options.Solver (SolverDense routes to the exact sparse per-component
// path, which is bit-identical anyway); the reuse contract is that of
// Sync. g is read, never retained. An observer sees the phases of the
// one solve step: "estimate" spans the build of g, the closures and the
// component split, as on the dense backend; there is no "mls" phase.
func (s *Synchronizer) SyncCSR(g *graph.CSR, opts Options) (*Result, error) {
	return result(s.solve(&input{from: fromCSR, n: g.N(), g: g}, opts))
}

// source names the form of a solve's m~ls input.
type source int

const (
	fromRows   source = iota // Sync: a row matrix
	fromSystem               // SyncSystem: links and a trace table, reduced on ingestion
	fromCSR                  // SyncCSR: a prepared adjacency, never dense
)

// input is one solve's m~ls: the fields of its source.
type input struct {
	from  source
	n     int
	rows  [][]float64
	links []Link
	tab   *trace.Table
	mopts MLSOptions
	g     *graph.CSR
}

// result exposes a solved arena's Result.
func result(a *resultArena, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &a.res, nil
}

// checkRoot rejects a root outside the n processors (any root of an empty
// system is accepted).
func checkRoot(root, n int) error {
	if root < 0 || (n > 0 && root >= n) {
		return fmt.Errorf("core: root %d out of range [0,%d)", root, n)
	}
	return nil
}

// solve is the one solve step behind every entry point: it checks the
// root, ingests the input onto a backend, runs GLOBAL ESTIMATES
// (Theorem 5.5) and the component split, then SHIFTS on every component,
// and wires the Result. The observer sees "mls" (system inputs only),
// then "estimate" (everything but the reduction, Karp and the
// corrections), "karp_amax" and "corrections"; with Options.Quality the
// quality report is published.
func (s *Synchronizer) solve(in *input, opts Options) (*resultArena, error) {
	if err := checkRoot(opts.Root, in.n); err != nil {
		return nil, err
	}
	var t *phaseTimer
	if opts.Observer != nil {
		s.timer = phaseTimer{clk: opts.clock()}
		t = &s.timer
	}
	mark := t.mark()
	a, g, err := s.ingest(in, opts.Solver)
	if err != nil {
		return nil, err
	}
	if t != nil && in.from == fromSystem {
		opts.Observer.ObservePhase("mls", t.lap(&mark).Seconds())
	}
	pool := s.ensurePool(opts.Parallelism)

	thresh, withMS := 0, false
	if g == nil {
		if err := closeDense(&a.ms, pool); err != nil {
			return nil, err
		}
		s.layoutComponents(a, in.n, graph.SCCDense(&a.ms, &s.scc))
	} else {
		thresh, withMS = s.splitCSR(a, g, &opts)
	}
	res := &a.res
	res.Corrections = a.corr
	res.Components = a.comps
	res.ComponentPrecision = a.prec
	res.ComponentLowerBound = a.lowerB
	if g == nil || withMS {
		a.msRows = a.ms.RowsInto(a.msRows)
		res.MS = a.msRows
	}
	if err := s.solveComponents(a, g, opts, thresh, withMS, pool, t); err != nil {
		return nil, err
	}

	if t != nil {
		est := max(t.lap(&mark)-t.karp-t.corr, 0)
		opts.Observer.ObservePhase("estimate", est.Seconds())
		opts.Observer.ObservePhase("karp_amax", t.karp.Seconds())
		opts.Observer.ObservePhase("corrections", t.corr.Seconds())
	}
	if opts.Quality {
		// The gradient histogram covers a system's declared link pairs,
		// otherwise every in-component pair.
		var pairs [][2]int
		if in.from == fromSystem {
			pairs = linkPairs(in.links)
		}
		PublishQuality(res, pairs, opts.QualityLabel, nil)
		if res.MS == nil {
			// Where no pair sweep is affordable, the hierarchical
			// solver's per-cluster bounds keep cluster precision visible.
			h := obs.Default.Histogram(qualityName("quality.precision.cluster", opts.QualityLabel), obs.DefTimeBuckets)
			for _, bounds := range s.hierQ {
				for _, b := range bounds {
					h.Observe(b)
				}
			}
		}
	}
	return a, nil
}

// ingest is the one ingestion step: it turns the input into a dense m~ls
// block in the next arena (g nil) or into a built CSR adjacency g. A row
// matrix or a system goes where useDense sends it, and a prepared CSR
// stays sparse. Dense inputs never build a CSR: a row matrix counts its
// entries only when useDense asks, and a system builds its CSR only then
// (scattering it into the block if the instance turns out dense).
func (s *Synchronizer) ingest(in *input, solver Solver) (a *resultArena, g *graph.CSR, err error) {
	n := in.n
	switch in.from {
	case fromCSR:
		in.g.Build()
		return s.nextArena(n, false), in.g, nil
	case fromRows:
		if err := validateMatrix(in.rows); err != nil {
			return nil, nil, err
		}
		if !useDense(solver, n, func() int { return rowsNnz(in.rows) }) {
			s.csr.Reset(n)
			for i, row := range in.rows {
				for j, x := range row {
					if i == j || math.IsInf(x, 1) {
						continue
					}
					if err := s.csr.AddEdge(i, j, x); err != nil {
						return nil, nil, err
					}
				}
			}
			s.csr.Build()
			return s.nextArena(n, false), &s.csr, nil
		}
		a = s.nextArena(n, true)
		for i, row := range in.rows {
			copy(a.ms.Row(i), row)
		}
	case fromSystem:
		built := false
		dense := useDense(solver, n, func() int {
			built = true
			err = mlsCSRInto(&s.csr, &s.covered, n, in.links, in.tab, in.mopts)
			return s.csr.Nnz()
		})
		switch {
		case err != nil:
			return nil, nil, err
		case !dense:
			// m~ls goes straight into CSR: O(links) work and memory,
			// never an n×n matrix.
			if !built {
				if err := mlsCSRInto(&s.csr, &s.covered, n, in.links, in.tab, in.mopts); err != nil {
					return nil, nil, err
				}
			}
			return s.nextArena(n, false), &s.csr, nil
		case built:
			// The CSR measured the instance dense; scatter it.
			a = s.nextArena(n, true)
			a.ms.Fill(graph.Inf)
			scatterCSR(&s.csr, &a.ms)
		default:
			a = s.nextArena(n, true)
			if err := mlsMatrixInto(&a.ms, &s.covered, n, in.links, in.tab, in.mopts); err != nil {
				return nil, nil, err
			}
			if err := validateDense(&a.ms); err != nil {
				return nil, nil, err
			}
		}
	}
	a.ms.FillDiag(0)
	return a, nil, nil
}

// rowsNnz counts the finite off-diagonal entries of a row matrix.
func rowsNnz(mls [][]float64) int {
	nnz := 0
	for i, row := range mls {
		for j, x := range row {
			if i != j && !math.IsInf(x, 1) {
				nnz++
			}
		}
	}
	return nnz
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
	grow(&a.corr, n)
	grow(&a.compFlat, n)
	a.cycle = a.cycle[:0]
	a.res = Result{}
	return a
}

// layoutComponents lays the component partition recorded in s.scc.CompOf
// out into arena storage: members ascending, components ordered by
// smallest member. Shared by the dense (closure SCC) and sparse
// (adjacency SCC) pipelines — the two partitions are identical because
// mutual reachability is closure-invariant.
func (s *Synchronizer) layoutComponents(a *resultArena, n, nc int) {
	grow(&s.compSize, nc)
	grow(&s.compPos, nc)
	grow(&s.order, nc)
	for c := 0; c < nc; c++ {
		s.compSize[c] = 0
		s.order[c] = c
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
	grow(&a.prec, nc)
	grow(&a.lowerB, nc)
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

// solveComponents runs SHIFTS on every sync component of the arena (see
// componentJob for g, thresh and withMS). Disconnected components are
// independent, so with a pool and no observer (whose per-phase attribution
// needs the serial order) stripe fans them out across lanes, the inner
// kernels then serial. A single component sets the Result's precision and
// critical cycle; several set the precision to +Inf.
func (s *Synchronizer) solveComponents(a *resultArena, g *graph.CSR, opts Options, thresh int, withMS bool, pool *graph.Pool, t *phaseTimer) error {
	job := componentJob{a: a, g: g, opts: opts, thresh: thresh, withMS: withMS, t: t}
	if err := stripe(s, len(a.comps), s.kit(0), pool, t == nil, job); err != nil {
		return err
	}
	a.res.Precision = math.Inf(1)
	if len(a.comps) == 1 {
		a.res.Precision = a.prec[0]
	}
	return nil
}

// laneJob is the body of a striped loop: run handles index i on kit, its
// inner kernels on pool (nil on a fanned-out lane).
type laneJob interface {
	run(s *Synchronizer, i int, kit *compKit, pool *graph.Pool) error
}

// stripe runs job on every index in [0, n). With fan set and a pool of two
// or more lanes it stripes the indices across min(lanes, n) lanes, lane
// part on s.kit(part) and the inner kernels serial; otherwise it runs them
// in order on kit with the inner kernels on pool. Only the serial order
// holds a pool, on s.kit(0), so lane 0 is always the caller's kit, and a
// component on a fanned-out lane touches no kit but its own. Every index
// writes its own outputs, so both orders give the same bits, and the
// lowest-index error wins either way. Jobs are value types: a closure
// would escape to the lanes and cost an allocation on the serial path too.
func stripe[J laneJob](s *Synchronizer, n int, kit *compKit, pool *graph.Pool, fan bool, job J) error {
	lanes := min(pool.Lanes(), n)
	if !fan || lanes < 2 {
		for i := 0; i < n; i++ {
			if err := job.run(s, i, kit, pool); err != nil {
				return err
			}
		}
		return nil
	}
	s.kit(lanes - 1) // grow the kit set before the lanes race to it
	lanesJob := job  // the lanes capture this copy, so only fanning moves a large job to the heap
	pool.Run(lanes, func(part int) {
		k := s.kits[part]
		k.err = nil
		for i := part; i < n; i += lanes {
			if k.err = lanesJob.run(s, i, k, nil); k.err != nil {
				k.errAt = i
				return
			}
		}
	})
	var err error
	at := n
	for _, k := range s.kits[:lanes] {
		if k.err != nil && k.errAt < at {
			err, at = k.err, k.errAt
		}
	}
	return err
}

// componentJob runs SHIFTS on one sync component: A_max on its closure
// block, then the corrections. The dense pipeline (g nil) reads the block
// from the arena's closure; the sparse pipeline closes the component of g
// into kit.ms or, above thresh nodes, hands it to the hierarchical solver,
// and copies the closure into the arena's m~s when withMS. It fills
// a.prec[ci], a.lowerB[ci] (equal to it on an exact solve) and the
// component's correction slots; the only component of a system also sets
// the Result's critical cycle (none on the hierarchical path).
type componentJob struct {
	a      *resultArena
	g      *graph.CSR
	opts   Options
	thresh int
	withMS bool
	t      *phaseTimer
}

func (j componentJob) run(s *Synchronizer, ci int, kit *compKit, pool *graph.Pool) error {
	a, g := j.a, j.g
	comp := a.comps[ci]
	k := len(comp)
	if k == 1 {
		a.corr[comp[0]] = 0
		a.prec[ci] = 0
		a.lowerB[ci] = 0
		return nil
	}
	ms, idx := &a.ms, comp
	if g != nil {
		if k > j.thresh {
			return s.solveHierComponent(kit, g, a, ci, comp, j.opts, pool, j.t)
		}
		if err := kit.closeBlock(&kit.ms, g, comp, pool); err != nil {
			return err
		}
		if j.withMS {
			for li, p := range comp {
				src := kit.ms.Row(li)
				dst := a.ms.Row(p)
				for lj, q := range comp {
					dst[q] = src[lj]
				}
			}
		}
		ms, idx = &kit.ms, s.ident(k)
	}
	m := j.t.mark()
	aMax, cycle := s.componentAMax(kit, ms, idx, pool)
	a.prec[ci] = aMax
	a.lowerB[ci] = aMax
	j.t.addKarp(&m)
	fwd := grow(&kit.dist, k)
	var rev []float64
	if j.opts.Centered {
		rev = grow(&kit.distTo, k)
	}
	root := max(slices.Index(comp, j.opts.Root), 0)
	if err := kit.correctionDistances(ms, idx, aMax, root, fwd, rev, pool); err != nil {
		return err
	}
	for x, p := range comp {
		if rev == nil {
			a.corr[p] = fwd[x]
		} else {
			a.corr[p] = (fwd[x] - rev[x]) / 2
		}
	}
	j.t.addCorr(&m)
	if g != nil {
		// Karp ran on local indices; translate the cycle in place.
		for i, v := range cycle {
			cycle[i] = comp[v]
		}
	}
	if len(a.comps) == 1 && cycle != nil {
		a.cycle = append(a.cycle[:0], cycle...)
		a.res.CriticalCycle = a.cycle
	}
	return nil
}

// componentAMax computes A_max for one sync component: the maximum mean
// cycle of the closure block ms read through idx, over the complete
// digraph on the component (Theorem 4.6). The returned cycle, mapped
// through idx, aliases kit scratch.
func (s *Synchronizer) componentAMax(kit *compKit, ms *graph.Dense, idx []int, pool *graph.Pool) (float64, []int) {
	if len(idx) <= 1 {
		return 0, nil
	}
	mc, ok := graph.MaxMeanCycleDense(ms, idx, &kit.karp, pool)
	if !ok {
		return 0, nil
	}
	return mc.Mean, mc.Cycle
}

// closeDense runs GLOBAL ESTIMATES (Theorem 5.5) on d in place, reporting
// a negative cycle as ErrInfeasible.
func closeDense(d *graph.Dense, pool *graph.Pool) error {
	err := graph.FloydWarshallDense(d, pool)
	if errors.Is(err, graph.ErrNegativeCycle) {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return err
}

// closeBlock is GLOBAL ESTIMATES on the block of g that nodes select: it
// writes the m~ls edges among nodes into dst, in nodes' order (+Inf
// absent, 0 on the diagonal), and closes it with closeDense. For a sync
// component this reproduces the global closure bit for bit on the block:
// shortest paths between same-component nodes never leave the component,
// and Floyd-Warshall visits the surviving pivots in the same ascending
// order.
func (kit *compKit) closeBlock(dst *graph.Dense, g *graph.CSR, nodes []int, pool *graph.Pool) error {
	for len(kit.pos) < g.N() {
		kit.pos = append(kit.pos, -1)
	}
	for i, p := range nodes {
		kit.pos[p] = i
	}
	dst.Reset(len(nodes))
	dst.Fill(graph.Inf)
	dst.FillDiag(0)
	for i, p := range nodes {
		row := dst.Row(i)
		cols, wgts := g.Row(p)
		for e, q := range cols {
			if j := kit.pos[q]; j >= 0 {
				row[j] = wgts[e]
			}
		}
	}
	for _, p := range nodes {
		kit.pos[p] = -1
	}
	return closeDense(dst, pool)
}

// correctionDistances is step 2 of SHIFTS (Theorem 4.6) on one closed
// block, m~s(a, b) = ms[idx[a]][idx[b]]: it builds the weights
// w = lam - m~s into kit.w (+Inf where m~s is +Inf, and on the diagonal)
// and runs Bellman-Ford over w into fwd and, when rev is non-nil, over its
// transpose into rev (the distances to the sources rather than from them),
// the two passes on two lanes when a pool is given. With root >= 0 both
// passes start at root and are shifted so that root sits at exactly 0;
// with root < 0 the caller has seeded fwd and rev, each finite entry a
// source pinned at that potential. lam is at least the block's maximum
// cycle mean, so w has no negative cycle.
func (kit *compKit) correctionDistances(ms *graph.Dense, idx []int, lam float64, root int, fwd, rev []float64, pool *graph.Pool) error {
	k := len(idx)
	kit.w.Reset(k)
	for a, p := range idx {
		src := ms.Row(p)
		dst := kit.w.Row(a)
		for b, q := range idx {
			if x := src[q]; math.IsInf(x, 1) {
				dst[b] = graph.Inf
			} else {
				dst[b] = lam - x
			}
		}
		dst[a] = graph.Inf // no self edges
	}
	parent := grow(&kit.parent, k)
	if rev == nil {
		return correctionPass(&kit.w, root, fwd, parent)
	}
	kit.w.TransposeInto(&kit.wT)
	parentTo := grow(&kit.parentTo, k)
	if pool == nil {
		if err := correctionPass(&kit.w, root, fwd, parent); err != nil {
			return err
		}
		return correctionPass(&kit.wT, root, rev, parentTo)
	}
	var errFwd, errRev error // declared past the serial return: the lanes move them to the heap
	pool.Run(2, func(part int) {
		if part == 0 {
			errFwd = correctionPass(&kit.w, root, fwd, parent)
		} else {
			errRev = correctionPass(&kit.wT, root, rev, parentTo)
		}
	})
	if errFwd != nil {
		return errFwd
	}
	return errRev
}

// correctionPass runs one Bellman-Ford pass of correctionDistances: from
// root, shifted so the root's own distance is exactly zero (tiny negative
// cycle noise otherwise perturbs it), or, with root < 0, from the finite
// entries of dist.
func correctionPass(w *graph.Dense, root int, dist []float64, parent []int) error {
	var err error
	if root >= 0 {
		err = graph.BellmanFordDense(w, root, dist, parent)
	} else {
		for i := range parent {
			parent[i] = -1
		}
		err = graph.BellmanFordDenseFrom(w, dist, parent)
	}
	if errors.Is(err, graph.ErrNegativeCycle) {
		// The weights subtract at least the maximum cycle mean, so this can
		// only be numerical noise; treat as infeasible input.
		return fmt.Errorf("%w: correction weights have a negative cycle", ErrInfeasible)
	}
	if err != nil || root < 0 {
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
		Precision:           r.Precision,
		Corrections:         slices.Clone(r.Corrections),
		ComponentPrecision:  slices.Clone(r.ComponentPrecision),
		ComponentLowerBound: slices.Clone(r.ComponentLowerBound),
		CriticalCycle:       slices.Clone(r.CriticalCycle),
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

// grow resizes *buf to n, reallocating only when its capacity is short,
// and returns it; the contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// synchronizerPool backs the package-level Synchronize/SynchronizeSystem
// wrappers: repeated calls reuse warmed-up scratch across the process
// while still returning detached, caller-owned Results.
var synchronizerPool = sync.Pool{New: func() any { return NewSynchronizer() }}

// solvePooled is the body of those wrappers: one solve on a pooled
// Synchronizer, whose result is cloned before the Synchronizer goes back.
func solvePooled(in *input, opts Options) (*Result, error) {
	s := synchronizerPool.Get().(*Synchronizer)
	defer synchronizerPool.Put(s)
	res, err := result(s.solve(in, opts))
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}
