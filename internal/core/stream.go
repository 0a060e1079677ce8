package core

import (
	"fmt"
	"math"
	"slices"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// Streaming solve metrics: how often Corrections was served from the
// certified cache or by a full batch re-solve, and how large the dirty
// sets were.
var (
	mStreamObs       = obs.Default.Counter("stream.observations")
	mStreamCached    = obs.Default.Counter("stream.solves.cached")
	mStreamBatch     = obs.Default.Counter("stream.solves.batch")
	hStreamDirtyEdge = obs.Default.Histogram("stream.dirty.edges", obs.DefSizeBuckets)
)

// Stream is the incremental face of the synchronization pipeline: it
// accepts observations one at a time into a trace.Table, the same store
// SyncSystem reduces, keeps every observed pair's estimated maximal local
// shifts current with the batch reduction's own per-link step (linkMLS),
// and on Corrections reuses the previous solve wherever the tightened
// edges provably cannot change it. For every built-in model except
// PairedBias's statistics relaxation a new message can only tighten its
// pair's m~ls.
//
// Every Corrections call is resolved one of two ways, and either way the
// result is bit-for-bit what a fresh batch solve of the same observations
// would produce:
//
//  1. Cached: every dirty edge passes graph.ClosureEdgeInert against the
//     cached m~s closure, so the previous Result is returned unchanged.
//     O(dirty * n), zero allocations. This is the steady state of a
//     converged system: once the per-link statistics have stabilized, new
//     observations stop moving m~ls (or move it without affecting any
//     shortest path).
//  2. Batch: everything else — the first call, a shift that grew or is
//     NaN, or any dirty edge that fails certification — runs
//     SyncSystem's pipeline on the stream's links and table, on the dense
//     backend whose closure the cache certifies against. The
//     certification is O(dirty * n), so it never costs more than the
//     O(n^3) batch it can avoid, whatever fraction of the edges is dirty.
//
// Reuse contract: the Result returned by Corrections (including every
// slice it references) is owned by the Stream and remains valid only
// until the next Corrections call; use Result.Clone to retain it. A
// Stream must not be used from multiple goroutines concurrently.
type Stream struct {
	opts  Options
	mopts MLSOptions
	links []Link
	tab   *trace.Table

	linksOf map[trace.LinkKey][]Link // declared links per unordered pair
	pairs   []pairState              // by the table's pair rank

	sync  *Synchronizer // batch pipeline + arenas backing cached results
	check *Synchronizer // cross-check lane, lazily created

	cur        *resultArena // arena holding the cached solve
	haveSolve  bool
	fullDirty  bool    // a shift grew or is NaN: next solve is batch
	dirty      []int32 // pair ranks with >= 1 tightened direction since last solve
	crossCheck bool

	stats StreamStats
}

// pairState is the online state of one observed pair, in the orientation
// (p, q) the table gives its rank: its declared links, its current m~ls,
// which always equals the batch reduction's of the same observations, and
// which directions tightened since the last solve.
type pairState struct {
	links            []Link
	mlsPQ, mlsQP     float64
	dirtyPQ, dirtyQP bool
}

// StreamStats counts how a Stream resolved its Corrections calls.
type StreamStats struct {
	Observations int64 // Observe calls accepted
	Cached       int64 // served unchanged from the certified cache
	// Repaired is always zero: Stream has no repair path. The field stays
	// until the benchmark that reports it drops its stream.repaired column.
	Repaired int64
	Batch    int64 // full batch re-solves
}

// NewStream builds a streaming synchronizer for an n-processor system with
// the given links. The options mirror SynchronizeSystem: mopts controls
// the m~ls reduction, opts the pipeline (root, centered, parallelism,
// observer). The solver is always SolverDense.
func NewStream(n int, links []Link, mopts MLSOptions, opts Options) (*Stream, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: stream needs at least one processor, got %d", n)
	}
	if err := checkRoot(opts.Root, n); err != nil {
		return nil, err
	}
	linksOf := make(map[trace.LinkKey][]Link)
	for _, l := range links {
		if err := l.Validate(n); err != nil {
			return nil, err
		}
		k := trace.Canon(l.P, l.Q)
		linksOf[k] = append(linksOf[k], l)
	}
	opts.Solver = SolverDense // the cache certifies against the dense closure
	return &Stream{
		opts:    opts,
		mopts:   mopts,
		links:   slices.Clone(links),
		tab:     trace.NewTable(n, false),
		linksOf: linksOf,
		sync:    NewSynchronizer(),
	}, nil
}

// SetCrossCheck toggles the internal verification mode used by tests and
// the fuzz harness: every cached Corrections result is compared bit for bit
// against a fresh batch solve on an independent Synchronizer, and a
// mismatch is returned as an error.
func (s *Stream) SetCrossCheck(on bool) { s.crossCheck = on }

// Stats returns cumulative solve-path counters for this Stream.
func (s *Stream) Stats() StreamStats { return s.stats }

// N returns the number of processors.
func (s *Stream) N() int { return s.tab.N() }

// Close releases the worker pools. The Stream stays usable.
func (s *Stream) Close() {
	s.sync.Close()
	if s.check != nil {
		s.check.Close()
	}
}

// Observe folds one delivered message into the stream: the sender's clock
// at transmission and the receiver's clock at receipt, exactly as
// trace.Sample records them. The table's Add validates it, as it does for
// the batch recorder. Steady-state cost is one table update plus linkMLS
// per link on the pair, with zero allocations.
func (s *Stream) Observe(from, to model.ProcID, sendClock, recvClock float64) error {
	if err := s.tab.Add(trace.Sample{From: from, To: to, SendClock: sendClock, RecvClock: recvClock}); err != nil {
		return err
	}
	mStreamObs.Inc()
	s.stats.Observations++
	_, _, id := s.tab.Pair(from, to)
	if id == len(s.pairs) {
		s.pairs = append(s.pairs, s.firstSeen(id))
	}
	e := &s.pairs[id]
	mlsPQ, mlsQP, err := s.pairMLS(id, e.links, s.tab)
	if err != nil {
		// The batch solve reports it, with SyncSystem's error.
		s.fullDirty = true
		return nil
	}
	if mlsPQ > e.mlsPQ || mlsQP > e.mlsQP {
		// A non-monotone (custom) assumption: decrease-only reasoning no
		// longer applies, so the next solve runs from scratch.
		s.fullDirty = true
	}
	shrankPQ, shrankQP := mlsPQ < e.mlsPQ, mlsQP < e.mlsQP
	if (shrankPQ || shrankQP) && !e.dirtyPQ && !e.dirtyQP {
		s.dirty = append(s.dirty, int32(id))
	}
	e.dirtyPQ = e.dirtyPQ || shrankPQ
	e.dirtyQP = e.dirtyQP || shrankQP
	e.mlsPQ, e.mlsQP = mlsPQ, mlsQP
	return nil
}

// firstSeen builds the state of the pair of rank id on its first
// observation: its declared links, looked up once, and the m~ls the last
// batch solve used for it, that of a silent pair. An error there failed
// every batch solve so far, so no solve is cached to certify against.
func (s *Stream) firstSeen(id int) pairState {
	p, q, _, _ := s.tab.PairAt(id)
	e := pairState{links: s.linksOf[trace.Canon(p, q)]}
	e.mlsPQ, e.mlsQP, _ = s.pairMLS(id, e.links, nil)
	return e
}

// pairMLS is the m~ls of the pair of rank id, in the table's orientation,
// on tab's statistics (tab nil: a silent pair's): the minimum of its
// links' shifts (Theorem 5.6), or with no link the NoBounds shift of an
// observed pair under AssumeNonnegative, as eachMLS computes them.
func (s *Stream) pairMLS(id int, links []Link, tab *trace.Table) (mlsPQ, mlsQP float64, err error) {
	p, _, pq, qp := s.tab.PairAt(id)
	mlsPQ, mlsQP = math.Inf(1), math.Inf(1)
	if len(links) == 0 {
		if tab != nil && s.mopts.AssumeNonnegative {
			mlsPQ, mlsQP = delay.NoBounds().MLS(pq, qp)
		}
		return mlsPQ, mlsQP, nil
	}
	for _, l := range links {
		a, b, _, err := linkMLS(l, tab, s.mopts.AssumeNonnegative)
		if err != nil {
			return 0, 0, err
		}
		if l.P != p {
			a, b = b, a
		}
		mlsPQ, mlsQP = min(mlsPQ, a), min(mlsQP, b) // a, b are not NaN
	}
	return mlsPQ, mlsQP, nil
}

// Corrections solves the pipeline for the observations so far, returning
// the previous solve when it is certified unchanged and re-solving in
// batch otherwise. See the Stream type documentation for the solve rule
// and the Result reuse contract.
func (s *Stream) Corrections() (*Result, error) {
	dirtyEdges := 0
	for _, idx := range s.dirty {
		e := &s.pairs[idx]
		if e.dirtyPQ {
			dirtyEdges++
		}
		if e.dirtyQP {
			dirtyEdges++
		}
	}
	hStreamDirtyEdge.Observe(float64(dirtyEdges))

	if s.haveSolve && !s.fullDirty && s.allInert() {
		// Every tightened edge is certified not to move the closure: the
		// cached result is bit-for-bit the fresh batch answer.
		s.clearDirty()
		mStreamCached.Inc()
		s.stats.Cached++
		return s.crossChecked(&s.cur.res)
	}
	res, err := s.batchSolve()
	if err != nil {
		return nil, err
	}
	mStreamBatch.Inc()
	s.stats.Batch++
	return res, nil
}

// allInert certifies every dirty directed edge against the cached closure.
func (s *Stream) allInert() bool {
	for _, idx := range s.dirty {
		e := &s.pairs[idx]
		p, q, _, _ := s.tab.PairAt(int(idx))
		if e.dirtyPQ && !graph.ClosureEdgeInert(&s.cur.ms, int(p), int(q), e.mlsPQ) {
			return false
		}
		if e.dirtyQP && !graph.ClosureEdgeInert(&s.cur.ms, int(q), int(p), e.mlsQP) {
			return false
		}
	}
	return true
}

// clearDirty resets the per-pair dirty flags and empties the dirty list.
func (s *Stream) clearDirty() {
	for _, idx := range s.dirty {
		s.pairs[idx].dirtyPQ = false
		s.pairs[idx].dirtyQP = false
	}
	s.dirty = s.dirty[:0]
}

// batchSolve runs SyncSystem's pipeline on the stream's links and table
// and installs the result as the new incremental baseline. Only this path
// publishes quality: a cached result is unchanged, so the published
// gauges still hold.
func (s *Stream) batchSolve() (*Result, error) {
	a, err := s.sync.solve(&input{from: fromSystem, n: s.N(), links: s.links, tab: s.tab, mopts: s.mopts}, s.opts)
	if err != nil {
		s.haveSolve = false
		return nil, err
	}
	s.cur = a
	s.haveSolve = true
	s.fullDirty = false
	s.clearDirty()
	return &a.res, nil
}

// crossChecked applies the cross-check hook, when enabled, to a result
// served from the cache: it must equal a fresh batch solve bit for bit.
// The check solve is the stream's own bookkeeping, so it reports no
// phases and publishes no quality.
func (s *Stream) crossChecked(res *Result) (*Result, error) {
	if !s.crossCheck {
		return res, nil
	}
	if s.check == nil {
		s.check = NewSynchronizer()
	}
	opts := s.opts
	opts.Observer, opts.Quality = nil, false
	fresh, err := s.check.SyncSystem(s.N(), s.links, s.tab, s.mopts, opts)
	if err != nil {
		return nil, fmt.Errorf("core: stream cross-check batch solve failed: %w", err)
	}
	if err := compareResults(res, fresh); err != nil {
		return nil, fmt.Errorf("core: stream cross-check mismatch: %w", err)
	}
	return res, nil
}

// compareResults checks an incremental result against a fresh batch
// result bit for bit: every field of a dense Result.
func compareResults(got, want *Result) error {
	same := func(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }
	switch {
	case !sameBits(got.Precision, want.Precision):
		return fmt.Errorf("precision %v vs %v", got.Precision, want.Precision)
	case !same(got.Corrections, want.Corrections):
		return fmt.Errorf("corrections %v vs %v", got.Corrections, want.Corrections)
	case !same(got.ComponentPrecision, want.ComponentPrecision):
		return fmt.Errorf("component precision %v vs %v", got.ComponentPrecision, want.ComponentPrecision)
	case !same(got.ComponentLowerBound, want.ComponentLowerBound):
		return fmt.Errorf("component lower bound %v vs %v", got.ComponentLowerBound, want.ComponentLowerBound)
	case !slices.Equal(got.CriticalCycle, want.CriticalCycle):
		return fmt.Errorf("critical cycle %v vs %v", got.CriticalCycle, want.CriticalCycle)
	case !slices.EqualFunc(got.Components, want.Components, slices.Equal):
		return fmt.Errorf("components %v vs %v", got.Components, want.Components)
	case !slices.EqualFunc(got.MS, want.MS, same):
		return fmt.Errorf("ms %v vs %v", got.MS, want.MS)
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
