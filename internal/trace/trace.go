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
// enabled. Its memory is linear in the observed pairs: silent pairs cost
// nothing, and each processor up to the highest one that sent costs a
// 16-byte window header.
//
// Every unordered pair with traffic owns two adjacent cells of the
// statistics slab: cells[2i+1] for the direction of its first sample (or
// first non-empty MergeStats) and cells[2i+2] for the reverse, where i is
// the pair's rank by first arrival; cells[0] is the shared empty cell.
// Pairs visits the pairs in that order, each in the orientation of its
// first sample, then reversed, without a lookup.
//
// A source's observed directions are found through its window: a
// power-of-two open-addressing table in one slab shared by all sources,
// each entry packing the destination and its cell into one word, probed
// linearly from a multiplicative hash of the destination. A source's
// lookups therefore stay in its own window, a few cache lines for a
// clique-sized row, and a destination stride cannot pile its entries onto
// one probe chain. A window whose load would pass 1/2 moves into fresh
// slab space twice its size. When the slab has no room left, the live
// windows move into a new slab with room for as much again, so the space
// moved windows abandoned never survives a reallocation.
type Table struct {
	n     int
	rows  []window    // per source that sent, and below: its window in slab
	slab  []uint64    // windows' entries: to<<32 | cell; 0 = free, slot 0 always
	cells []DirStats  // cells[0] is the empty cell; pair i owns 2i+1, 2i+2
	raw   [][]float64 // raw estimated delays parallel to cells, if keepRaw
	links []LinkKey   // pair i in the orientation of its first traffic
	keep  bool
}

// window locates one source's open-addressing window in the slab.
type window struct {
	off  int    // first slot in slab
	used uint32 // occupied slots
	bits uint8  // the window holds 1<<bits slots; 0 = none yet (off 0)
}

// minWindowBits sizes a source's first window: 4 slots, half a cache line.
const minWindowBits = 2

// maxCells caps the statistics slab so every cell index fits the int32 an
// index entry stores. It is a variable only so tests can lower it.
var maxCells = 1 << 31

// NewTable returns an empty table for n processors. If keepRaw is set, raw
// estimated delays are retained per pair (needed by assumption
// admissibility checks and the verifier; costs memory proportional to the
// trace). n must fit in an int32, as an index entry stores a destination in
// 32 bits; a larger n panics, as an n×n index would have.
func NewTable(n int, keepRaw bool) *Table {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("trace: table size %d past %d processors", n, math.MaxInt32))
	}
	t := &Table{n: n, slab: []uint64{0}, cells: []DirStats{NewDirStats()}, keep: keepRaw}
	if keepRaw {
		t.raw = [][]float64{nil}
	}
	return t
}

// N returns the number of processors.
func (t *Table) N() int { return t.n }

// check panics on endpoints out of range, as a nested slice would.
func (t *Table) check(from, to model.ProcID) {
	if uint(from) >= uint(t.n) || uint(to) >= uint(t.n) {
		panic(fmt.Sprintf("trace: pair p%d->p%d out of range [0,%d)", from, to, t.n))
	}
}

// home is the slot where the probe for to starts in a window of 1<<bits
// slots: the top bits of a Fibonacci hash (0 when bits is 0).
func home(to int, bits uint8) int {
	return int(uint64(to) * 0x9E3779B97F4A7C15 >> (64 - bits))
}

// cell returns the cell of the ordered pair (from, to), 0 when silent. A
// source without a window reads slot 0 of the slab, which stays free.
func (t *Table) cell(from, to int) int32 {
	if from >= len(t.rows) {
		return 0
	}
	w := t.rows[from]
	for i := home(to, w.bits); ; i = (i + 1) & (1<<w.bits - 1) {
		e := t.slab[w.off+i]
		if e == 0 {
			return 0
		}
		if int(e>>32) == to {
			return int32(uint32(e))
		}
	}
}

// insert adds the entry (to, c) to from's window, first moving the window
// into fresh slab space twice its size if the entry would load it past
// 1/2, compacting the slab when it has no room left. to must not be in
// the window yet.
func (t *Table) insert(from, to int, c int32) {
	if from >= len(t.rows) {
		t.rows = append(t.rows, make([]window, from+1-len(t.rows))...)
	}
	w := &t.rows[from]
	if w.bits == 0 || 2*(int(w.used)+1) > 1<<w.bits {
		bits := max(w.bits+1, minWindowBits)
		if len(t.slab)+1<<bits > cap(t.slab) {
			t.compact(1 << bits)
		}
		off := len(t.slab)
		t.slab = t.slab[:off+1<<bits]
		if w.bits > 0 {
			for _, e := range t.slab[w.off : w.off+1<<w.bits] {
				if e != 0 {
					t.place(off, bits, e)
				}
			}
		}
		w.off, w.bits = off, bits
	}
	t.place(w.off, w.bits, uint64(to)<<32|uint64(uint32(c)))
	w.used++
}

// compact moves every window into a fresh slab with room for twice the
// live windows plus extra slots, dropping the space the moved windows
// abandoned. A fresh slab is zero, and only windows are ever resliced
// into it, so its spare capacity, and its slot 0, read free.
func (t *Table) compact(extra int) {
	live := extra
	for _, w := range t.rows {
		if w.bits > 0 {
			live += 1 << w.bits
		}
	}
	slab := make([]uint64, 1, 1+2*live)
	for i := range t.rows {
		if w := &t.rows[i]; w.bits > 0 {
			off := len(slab)
			slab = append(slab, t.slab[w.off:w.off+1<<w.bits]...)
			w.off = off
		}
	}
	t.slab = slab
}

// place writes entry e into the first free slot of its probe chain in the
// window of 1<<bits slots at off.
func (t *Table) place(off int, bits uint8, e uint64) {
	mask := 1<<bits - 1
	win := t.slab[off : off+mask+1]
	i := home(int(e>>32), bits)
	for win[i] != 0 {
		i = (i + 1) & mask
	}
	win[i] = e
}

// sibling returns the cell of the reverse direction of cell c's pair:
// 2i+1 <-> 2i+2.
func sibling(c int32) int32 { return ((c - 1) ^ 1) + 1 }

// open gives the silent ordered pair (from, to) its cell and returns it:
// the reverse direction's sibling when that direction already has
// traffic, otherwise the first of two fresh cells, registering the
// unordered pair. It fails rather than let a cell index pass int32.
func (t *Table) open(from, to int) (int32, error) {
	var c int32
	if r := t.cell(to, from); r != 0 {
		c = sibling(r)
	} else {
		if len(t.cells) > maxCells-2 {
			return 0, fmt.Errorf("trace: pair p%d->p%d would pass the table's %d cells", from, to, maxCells)
		}
		c = int32(len(t.cells))
		t.cells = append(t.cells, NewDirStats(), NewDirStats())
		if t.keep {
			t.raw = append(t.raw, nil, nil)
		}
		t.links = append(t.links, LinkKey{P: model.ProcID(from), Q: model.ProcID(to)})
	}
	t.insert(from, to, c)
	return c, nil
}

// Add records one sample. Self-samples, out-of-range endpoints and a new
// pair past the table's capacity are rejected.
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
	c := t.cell(from, to)
	if c == 0 {
		var err error
		if c, err = t.open(from, to); err != nil {
			return err
		}
	}
	t.cells[c].Add(est)
	if t.keep {
		t.raw[c] = append(t.raw[c], est)
	}
	return nil
}

// Stats returns the statistics for the ordered pair (from, to).
func (t *Table) Stats(from, to model.ProcID) DirStats {
	t.check(from, to)
	return t.cells[t.cell(int(from), int(to))]
}

// Raw returns the retained estimated delays for (from, to); nil when raw
// retention is off or the link is silent. The returned slice is owned by
// the table.
func (t *Table) Raw(from, to model.ProcID) []float64 {
	if !t.keep {
		return nil
	}
	t.check(from, to)
	return t.raw[t.cell(int(from), int(to))]
}

// Active reports whether any traffic was observed in either direction
// between p and q.
func (t *Table) Active(p, q model.ProcID) bool {
	t.check(p, q)
	return t.cell(int(p), int(q)) != 0 || t.cell(int(q), int(p)) != 0
}

// Pair returns the statistics of both directions between p and q and the
// rank of their unordered pair in the order Pairs visits it, or -1 when
// neither direction carried traffic.
func (t *Table) Pair(p, q model.ProcID) (pq, qp DirStats, id int) {
	t.check(p, q)
	c := t.cell(int(p), int(q))
	if c == 0 {
		if c = t.cell(int(q), int(p)); c == 0 {
			return t.cells[0], t.cells[0], -1
		}
		return t.cells[sibling(c)], t.cells[c], int(c-1) / 2
	}
	return t.cells[c], t.cells[sibling(c)], int(c-1) / 2
}

// NumPairs returns the number of unordered pairs with traffic.
func (t *Table) NumPairs() int { return len(t.links) }

// PairAt returns the unordered pair of rank id (0 <= id < NumPairs) in
// the orientation of its first traffic, with the statistics of both
// directions.
func (t *Table) PairAt(id int) (p, q model.ProcID, pq, qp DirStats) {
	k := t.links[id]
	return k.P, k.Q, t.cells[2*id+1], t.cells[2*id+2]
}

// Pairs calls fn for every ordered pair (p,q), p != q, with traffic in at
// least one direction between them: for each unordered pair in the order
// of its first traffic, fn(p, q, ...) in the orientation of that first
// sample, then fn(q, p, ...). The walk is O(observed pairs) and reads the
// table only, so concurrent walks are safe.
func (t *Table) Pairs(fn func(p, q model.ProcID, pq, qp DirStats)) {
	for id := range t.links {
		p, q, pq, qp := t.PairAt(id)
		fn(p, q, pq, qp)
		fn(q, p, qp, pq)
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
	c := t.cell(f, o)
	if c == 0 {
		var err error
		if c, err = t.open(f, o); err != nil {
			return err
		}
	}
	t.cells[c].Merge(s)
	return nil
}
