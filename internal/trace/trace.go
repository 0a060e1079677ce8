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

// Table holds DirStats for every ordered processor pair of an n-processor
// system, plus the raw per-pair delays when retention is enabled.
type Table struct {
	n      int
	stats  [][]DirStats // [from][to]
	keep   bool
	delays [][][]float64 // raw estimated delays, if keep
}

// NewTable returns an empty table for n processors. If keepRaw is set, raw
// estimated delays are retained per pair (needed by assumption
// admissibility checks and the verifier; costs memory proportional to the
// trace).
func NewTable(n int, keepRaw bool) *Table {
	t := &Table{n: n, keep: keepRaw}
	t.stats = make([][]DirStats, n)
	for i := range t.stats {
		t.stats[i] = make([]DirStats, n)
		for j := range t.stats[i] {
			t.stats[i][j] = NewDirStats()
		}
	}
	if keepRaw {
		t.delays = make([][][]float64, n)
		for i := range t.delays {
			t.delays[i] = make([][]float64, n)
		}
	}
	return t
}

// N returns the number of processors.
func (t *Table) N() int { return t.n }

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
	t.stats[from][to].Add(est)
	if t.keep {
		t.delays[from][to] = append(t.delays[from][to], est)
	}
	return nil
}

// Stats returns the statistics for the ordered pair (from, to).
func (t *Table) Stats(from, to model.ProcID) DirStats { return t.stats[from][to] }

// Raw returns the retained estimated delays for (from, to); nil when raw
// retention is off or the link is silent. The returned slice is owned by
// the table.
func (t *Table) Raw(from, to model.ProcID) []float64 {
	if !t.keep {
		return nil
	}
	return t.delays[from][to]
}

// Active reports whether any traffic was observed in either direction
// between p and q.
func (t *Table) Active(p, q model.ProcID) bool {
	return !t.stats[p][q].Empty() || !t.stats[q][p].Empty()
}

// Pairs calls fn for every ordered pair (p,q), p != q, with traffic in at
// least one direction between them.
func (t *Table) Pairs(fn func(p, q model.ProcID, pq, qp DirStats)) {
	for p := 0; p < t.n; p++ {
		for q := 0; q < t.n; q++ {
			if p == q {
				continue
			}
			if t.stats[p][q].Empty() && t.stats[q][p].Empty() {
				continue
			}
			fn(model.ProcID(p), model.ProcID(q), t.stats[p][q], t.stats[q][p])
		}
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
func (t *Table) MergeStats(from, to model.ProcID, s DirStats) error {
	f, o := int(from), int(to)
	if f < 0 || f >= t.n || o < 0 || o >= t.n {
		return fmt.Errorf("trace: stats endpoints p%d->p%d out of range [0,%d)", f, o, t.n)
	}
	if f == o {
		return fmt.Errorf("trace: self-stats at p%d", f)
	}
	if s.Count > 0 && (math.IsNaN(s.Min) || math.IsNaN(s.Max) || s.Max < s.Min) {
		return fmt.Errorf("trace: invalid stats %v for p%d->p%d", s, f, o)
	}
	t.stats[f][o].Merge(s)
	return nil
}
