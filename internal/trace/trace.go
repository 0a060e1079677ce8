// Package trace reduces the views of an execution to the per-directed-link
// statistics the delay models of Section 6 need: the count, minimum and
// maximum of the *estimated* delays d~(m) = recvClock - sendClock (Lemma
// 6.1 shows these are exactly what the views reveal).
//
// The same container is reused by the verifier with *actual* delays, since
// Lemmas 6.2 and 6.5 have identical shape for the estimated and actual
// quantities.
package trace

import (
	"fmt"
	"math"

	"clocksync/internal/model"
)

// Sample is one observed message: the sender's clock at transmission and
// the receiver's clock at receipt. The estimated delay is Recv - Send.
type Sample struct {
	From, To  model.ProcID
	SendClock float64
	RecvClock float64
}

// EstimatedDelay returns d~ for the sample.
func (s Sample) EstimatedDelay() float64 { return s.RecvClock - s.SendClock }

// DirStats summarizes the estimated delays observed on one directed link.
// The zero value describes a link with no traffic: Min = +Inf, Max = -Inf
// follow the paper's convention for d_min/d_max of empty links (Section
// 6.1) and fall out of Add naturally; use NewDirStats or check Count.
type DirStats struct {
	Count int
	Min   float64
	Max   float64
}

// NewDirStats returns empty statistics with the paper's conventions:
// Min = +Inf and Max = -Inf.
func NewDirStats() DirStats {
	return DirStats{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add folds one estimated delay into the statistics.
func (d *DirStats) Add(est float64) {
	if d.Count == 0 {
		d.Min, d.Max = est, est
		d.Count = 1
		return
	}
	if est < d.Min {
		d.Min = est
	}
	if est > d.Max {
		d.Max = est
	}
	d.Count++
}

// Merge folds another statistics value into d.
func (d *DirStats) Merge(o DirStats) {
	if o.Count == 0 {
		return
	}
	if d.Count == 0 {
		*d = o
		return
	}
	if o.Min < d.Min {
		d.Min = o.Min
	}
	if o.Max > d.Max {
		d.Max = o.Max
	}
	d.Count += o.Count
}

// Empty reports whether no samples were observed.
func (d DirStats) Empty() bool { return d.Count == 0 }

// String renders the statistics compactly.
func (d DirStats) String() string {
	if d.Empty() {
		return "{}"
	}
	return fmt.Sprintf("{n=%d min=%g max=%g}", d.Count, d.Min, d.Max)
}

// Table holds DirStats for the ordered processor pairs of an n-processor
// system that carried traffic, plus their raw delays when retention is
// enabled. Silent pairs cost one int32 of index each and nothing else:
// slot maps (from, to) to a cell of the observed-direction slab, with
// slot 0 the shared empty cell of every silent pair. Pairs visits the
// unordered pairs with traffic in the order their first sample (or first
// non-empty MergeStats) arrived, each in the orientation of that first
// sample, then reversed.
type Table struct {
	n     int
	slot  []int32     // [from*n+to] -> index into cells; 0 = silent
	cells []DirStats  // cells[0] is the empty cell; the rest have traffic
	raw   [][]float64 // raw estimated delays parallel to cells, if keepRaw
	links []LinkKey   // unordered pairs with traffic, by first arrival
	keep  bool
}

// NewTable returns an empty table for n processors. If keepRaw is set, raw
// estimated delays are retained per pair (needed by assumption
// admissibility checks and the verifier; costs memory proportional to the
// trace).
func NewTable(n int, keepRaw bool) *Table {
	t := &Table{n: n, slot: make([]int32, n*n), cells: []DirStats{NewDirStats()}, keep: keepRaw}
	if keepRaw {
		t.raw = [][]float64{nil}
	}
	return t
}

// N returns the number of processors.
func (t *Table) N() int { return t.n }

// at returns the slot index of the ordered pair (from, to), panicking on
// endpoints out of range as a nested slice would.
func (t *Table) at(from, to model.ProcID) int {
	if uint(from) >= uint(t.n) || uint(to) >= uint(t.n) {
		panic(fmt.Sprintf("trace: pair p%d->p%d out of range [0,%d)", from, to, t.n))
	}
	return int(from)*t.n + int(to)
}

// open gives the silent ordered pair at slot index i a cell of its own,
// registering the unordered pair on its first traffic in either
// direction, and returns the cell's index. An index past int32 needs more
// than 2^31 observed directions (n above 46 000); it would wrap negative
// and panic on the next slab read, never alias another cell.
func (t *Table) open(i, from, to int) int32 {
	c := int32(len(t.cells))
	t.slot[i] = c
	t.cells = append(t.cells, NewDirStats())
	if t.keep {
		t.raw = append(t.raw, nil)
	}
	if t.slot[to*t.n+from] == 0 {
		t.links = append(t.links, LinkKey{P: model.ProcID(from), Q: model.ProcID(to)})
	}
	return c
}

// Add records one sample. Self-samples and out-of-range endpoints are
// rejected.
func (t *Table) Add(s Sample) error {
	from, to := int(s.From), int(s.To)
	if from < 0 || from >= t.n || to < 0 || to >= t.n {
		return fmt.Errorf("trace: sample endpoints p%d->p%d out of range [0,%d)", from, to, t.n)
	}
	if from == to {
		return fmt.Errorf("trace: self-sample at p%d", from)
	}
	est := s.EstimatedDelay()
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return fmt.Errorf("trace: sample p%d->p%d has invalid estimated delay %v", from, to, est)
	}
	i := from*t.n + to
	c := t.slot[i]
	if c == 0 {
		c = t.open(i, from, to)
	}
	t.cells[c].Add(est)
	if t.keep {
		t.raw[c] = append(t.raw[c], est)
	}
	return nil
}

// Stats returns the statistics for the ordered pair (from, to).
func (t *Table) Stats(from, to model.ProcID) DirStats { return t.cells[t.slot[t.at(from, to)]] }

// Raw returns the retained estimated delays for (from, to); nil when raw
// retention is off or the link is silent. The returned slice is owned by
// the table.
func (t *Table) Raw(from, to model.ProcID) []float64 {
	if !t.keep {
		return nil
	}
	return t.raw[t.slot[t.at(from, to)]]
}

// Active reports whether any traffic was observed in either direction
// between p and q.
func (t *Table) Active(p, q model.ProcID) bool {
	return t.slot[t.at(p, q)] != 0 || t.slot[t.at(q, p)] != 0
}

// Pairs calls fn for every ordered pair (p,q), p != q, with traffic in at
// least one direction between them: for each unordered pair in the order
// of its first traffic, fn(p, q, ...) in the orientation of that first
// sample, then fn(q, p, ...). The walk is O(observed pairs) and reads the
// table only, so concurrent walks are safe.
func (t *Table) Pairs(fn func(p, q model.ProcID, pq, qp DirStats)) {
	for _, k := range t.links {
		pq := t.cells[t.slot[int(k.P)*t.n+int(k.Q)]]
		qp := t.cells[t.slot[int(k.Q)*t.n+int(k.P)]]
		fn(k.P, k.Q, pq, qp)
		fn(k.Q, k.P, qp, pq)
	}
}

// Collect reduces an execution's messages to a table of estimated-delay
// statistics; this is the "local computation on views" of Section 5.
func Collect(e *model.Execution, keepRaw bool) (*Table, error) {
	return collect(e, keepRaw, func(m model.Message) Sample {
		return Sample{From: m.From, To: m.To, SendClock: m.SendClock, RecvClock: m.RecvClock}
	})
}

// CollectActual builds a table of *actual* delay statistics from an
// execution. Only the verifier may use this: real delays are not observable
// by any correction function.
func CollectActual(e *model.Execution, keepRaw bool) (*Table, error) {
	return collect(e, keepRaw, func(m model.Message) Sample {
		// Encode the actual delay as a sample with SendClock 0 so that
		// EstimatedDelay() returns d.
		//clocklint:allow timedomain deliberate encoding: with SendClock 0, d~ degenerates to the actual delay d
		return Sample{From: m.From, To: m.To, SendClock: 0, RecvClock: m.Delay(e)}
	})
}

// collect folds sample(m) for every delivered message into a fresh table,
// in one walk of the correspondence (Lemma 6.1's linear scan). Statistics
// do not depend on the walk's order; raw delays are kept in that order.
func collect(e *model.Execution, keepRaw bool, sample func(model.Message) Sample) (*Table, error) {
	t := NewTable(e.N(), keepRaw)
	var bad error
	if err := e.EachMessage(func(m model.Message) error {
		bad = t.Add(sample(m))
		return bad
	}); err != nil {
		if bad != nil {
			return nil, bad
		}
		return nil, fmt.Errorf("trace: resolve messages: %w", err)
	}
	return t, nil
}

// MergeStats folds externally computed statistics for the ordered pair
// (from, to) into the table. It is the ingestion path for distributed
// protocols that ship reduced per-link statistics instead of raw samples;
// raw retention (if enabled) is unaffected, since no samples exist.
// Non-empty statistics must have finite Min <= Max, as every sample Add
// accepts has a finite delay.
func (t *Table) MergeStats(from, to model.ProcID, s DirStats) error {
	f, o := int(from), int(to)
	if f < 0 || f >= t.n || o < 0 || o >= t.n {
		return fmt.Errorf("trace: stats endpoints p%d->p%d out of range [0,%d)", f, o, t.n)
	}
	if f == o {
		return fmt.Errorf("trace: self-stats at p%d", f)
	}
	if s.Count < 0 || (s.Count > 0 && !(s.Min <= s.Max)) {
		return fmt.Errorf("trace: invalid stats %v for p%d->p%d", s, f, o)
	}
	if s.Count == 0 {
		return nil
	}
	if math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) {
		return fmt.Errorf("trace: stats %v for p%d->p%d have a non-finite delay", s, f, o)
	}
	i := f*t.n + o
	c := t.slot[i]
	if c == 0 {
		c = t.open(i, f, o)
	}
	t.cells[c].Merge(s)
	return nil
}
