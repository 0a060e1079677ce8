package core

import (
	"fmt"
	"math"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/obs"
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
// accepts observations one at a time, maintains every link's estimated
// maximal local shifts online (each new message can only TIGHTEN its
// link's m~ls — see delay.Tighten), and on Corrections reuses the
// previous solve wherever the tightened edges provably cannot change it.
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
//  2. Batch: everything else — the first call, a non-monotone or NaN shift
//     update, or any dirty edge that fails certification — runs the full
//     Synchronizer pipeline on the current m~ls. The certification is
//     O(dirty * n), so it never costs more than the O(n^3) batch it can
//     avoid, whatever fraction of the edges is dirty.
//
// Reuse contract: the Result returned by Corrections (including every
// slice it references) is owned by the Stream and remains valid only
// until the next Corrections call; use Result.Clone to retain it. A
// Stream must not be used from multiple goroutines concurrently.
type Stream struct {
	n     int
	opts  Options
	mopts MLSOptions

	pairOf []int32 // (u*n + v) -> index into pairs, -1 when absent
	pairs  []pairEntry
	qpairs [][2]int // declared link pairs for quality telemetry (built once)

	mls graph.Dense // current m~ls; always equals the batch matrix of the same observations

	sync  *Synchronizer // batch pipeline + arenas backing cached results
	check *Synchronizer // cross-check lane, lazily created

	cur        *resultArena // arena holding the cached solve
	haveSolve  bool
	fullDirty  bool    // monotonicity lost (Grew/NaN): next solve is batch
	dirty      []int32 // pair indices with >= 1 tightened direction since last solve
	crossCheck bool

	stats StreamStats
}

// pairEntry is the online state of one unordered processor pair p < q: the
// combined assumption (every declared link on the pair, oriented p -> q,
// plus the non-negativity assumption when enabled) and the running
// statistics with their current shifts.
type pairEntry struct {
	p, q             int
	a                delay.Assumption
	st               delay.LinkStats
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
// observer).
func NewStream(n int, links []Link, mopts MLSOptions, opts Options) (*Stream, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: stream needs at least one processor, got %d", n)
	}
	if err := checkRoot(opts.Root, n); err != nil {
		return nil, err
	}
	s := &Stream{
		n:     n,
		opts:  opts,
		mopts: mopts,
		sync:  NewSynchronizer(),
	}
	s.pairOf = make([]int32, n*n)
	for i := range s.pairOf {
		s.pairOf[i] = -1
	}
	s.mls.Reset(n)
	s.mls.Fill(graph.Inf)
	s.mls.FillDiag(0)

	// Group links by unordered pair, orienting every assumption p -> q for
	// p < q; multiple assumptions conjoin (Theorem 5.6). The resulting
	// per-pair m~ls is the elementwise minimum of the per-link values —
	// exactly what the batch reduction computes entry by entry.
	parts := make(map[int][]delay.Assumption)
	for _, l := range links {
		if err := l.Validate(n); err != nil {
			return nil, err
		}
		p, q := int(l.P), int(l.Q)
		a := l.A
		if p > q {
			p, q = q, p
			a = delay.Flip(a)
		}
		parts[p*n+q] = append(parts[p*n+q], a)
	}
	for key, as := range parts {
		p, q := key/n, key%n
		if mopts.AssumeNonnegative {
			// Matches the batch path applying NoBounds to observed pairs:
			// on a silent pair NoBounds yields +Inf shifts, constraining
			// nothing, so conjoining it unconditionally is harmless.
			as = append(as, delay.NoBounds())
		}
		var a delay.Assumption
		if len(as) == 1 {
			a = as[0]
		} else {
			a = delay.Intersect{Parts: as}
		}
		if err := s.addPair(p, q, a); err != nil {
			return nil, err
		}
	}
	if opts.Quality {
		s.qpairs = make([][2]int, len(s.pairs))
		for i, e := range s.pairs {
			s.qpairs[i] = [2]int{e.p, e.q}
		}
	}
	return s, nil
}

// addPair registers the combined assumption for pair (p, q), seeding the
// shifts from empty statistics exactly as the batch reduction does.
func (s *Stream) addPair(p, q int, a delay.Assumption) error {
	st := delay.NewLinkStats()
	st.MLSPQ, st.MLSQP = a.MLS(st.PQ, st.QP)
	if math.IsNaN(st.MLSPQ) || math.IsNaN(st.MLSQP) {
		return fmt.Errorf("core: assumption %v on (p%d,p%d) produced NaN local shift", a, p, q)
	}
	idx := int32(len(s.pairs))
	s.pairs = append(s.pairs, pairEntry{p: p, q: q, a: a, st: st})
	s.pairOf[p*s.n+q] = idx
	s.pairOf[q*s.n+p] = idx
	s.mls.Set(p, q, st.MLSPQ)
	s.mls.Set(q, p, st.MLSQP)
	return nil
}

// SetCrossCheck toggles the internal verification mode used by tests and
// the fuzz harness: every cached Corrections result is compared bit for bit
// against a fresh batch solve on an independent Synchronizer, and a
// mismatch is returned as an error.
func (s *Stream) SetCrossCheck(on bool) { s.crossCheck = on }

// Stats returns cumulative solve-path counters for this Stream.
func (s *Stream) Stats() StreamStats { return s.stats }

// N returns the number of processors.
func (s *Stream) N() int { return s.n }

// Close releases the worker pools. The Stream stays usable.
func (s *Stream) Close() {
	s.sync.Close()
	if s.check != nil {
		s.check.Close()
	}
}

// Observe folds one delivered message into the stream: the sender's clock
// at transmission and the receiver's clock at receipt, exactly as
// trace.Sample records them. Validation mirrors the batch recorder: NaN or
// infinite estimated delays, out-of-range endpoints and self-messages are
// rejected. Steady-state cost is O(1) with zero allocations.
func (s *Stream) Observe(from, to model.ProcID, sendClock, recvClock float64) error {
	f, t := int(from), int(to)
	if f < 0 || f >= s.n || t < 0 || t >= s.n {
		return fmt.Errorf("core: sample endpoints p%d->p%d out of range [0,%d)", f, t, s.n)
	}
	if f == t {
		return fmt.Errorf("core: self-sample at p%d", f)
	}
	est := recvClock - sendClock
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return fmt.Errorf("core: sample p%d->p%d has invalid estimated delay %v", f, t, est)
	}
	idx := s.pairOf[f*s.n+t]
	if idx < 0 {
		if !s.mopts.AssumeNonnegative {
			// No link and no ambient assumption: the observation constrains
			// nothing, exactly as in the batch reduction.
			mStreamObs.Inc()
			s.stats.Observations++
			return nil
		}
		p, q := f, t
		if p > q {
			p, q = q, p
		}
		if err := s.addPair(p, q, delay.NoBounds()); err != nil {
			return err
		}
		idx = s.pairOf[f*s.n+t]
	}
	e := &s.pairs[idx]
	dPQ, dQP := delay.Tighten(e.a, delay.Obs{Est: est, ToQ: f == e.p}, &e.st)
	s.mls.Set(e.p, e.q, e.st.MLSPQ)
	s.mls.Set(e.q, e.p, e.st.MLSQP)
	if dPQ == delay.Grew || dQP == delay.Grew {
		// A non-monotone (custom) assumption or a NaN shift: decrease-only
		// reasoning no longer applies, so the next solve runs from scratch.
		s.fullDirty = true
	}
	if (dPQ == delay.Shrank || dQP == delay.Shrank) && !e.dirtyPQ && !e.dirtyQP {
		s.dirty = append(s.dirty, idx)
	}
	e.dirtyPQ = e.dirtyPQ || dPQ == delay.Shrank
	e.dirtyQP = e.dirtyQP || dQP == delay.Shrank
	mStreamObs.Inc()
	s.stats.Observations++
	return nil
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
		if e.dirtyPQ && !graph.ClosureEdgeInert(&s.cur.ms, e.p, e.q, e.st.MLSPQ) {
			return false
		}
		if e.dirtyQP && !graph.ClosureEdgeInert(&s.cur.ms, e.q, e.p, e.st.MLSQP) {
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

// batchSolve runs the full pipeline on the current m~ls and installs the
// result as the new incremental baseline. Only this path publishes
// quality: a cached result is unchanged, so the published gauges still
// hold.
func (s *Stream) batchSolve() (*Result, error) {
	a, err := s.sync.solve(&input{from: fromDense, n: s.n, dense: &s.mls, pairs: s.qpairs}, s.opts)
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
	fresh, err := result(s.check.solve(&input{from: fromDense, n: s.n, dense: &s.mls}, opts))
	if err != nil {
		return nil, fmt.Errorf("core: stream cross-check batch solve failed: %w", err)
	}
	if err := compareResults(res, fresh); err != nil {
		return nil, fmt.Errorf("core: stream cross-check mismatch: %w", err)
	}
	return res, nil
}

// compareResults checks an incremental result against a fresh batch
// result bit for bit.
func compareResults(got, want *Result) error {
	if len(got.Corrections) != len(want.Corrections) {
		return fmt.Errorf("corrections length %d vs %d", len(got.Corrections), len(want.Corrections))
	}
	if !sameBits(got.Precision, want.Precision) {
		return fmt.Errorf("precision %v vs %v", got.Precision, want.Precision)
	}
	for i := range got.Corrections {
		if !sameBits(got.Corrections[i], want.Corrections[i]) {
			return fmt.Errorf("corrections[%d] %v vs %v", i, got.Corrections[i], want.Corrections[i])
		}
	}
	for i := range got.MS {
		for j := range got.MS[i] {
			if !sameBits(got.MS[i][j], want.MS[i][j]) {
				return fmt.Errorf("ms[%d][%d] %v vs %v", i, j, got.MS[i][j], want.MS[i][j])
			}
		}
	}
	if len(got.Components) != len(want.Components) {
		return fmt.Errorf("%d components vs %d", len(got.Components), len(want.Components))
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
