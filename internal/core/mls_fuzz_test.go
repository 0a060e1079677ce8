package core

import (
	"math"
	"testing"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// refMLS is the naive Theorem 5.6 reduction: every directed pair starts
// unconstrained (+Inf, 0 on the diagonal) and takes the minimum of each
// link's shift on it and, with AssumeNonnegative, of the NoBounds shift
// of every direction of every observed pair, each looked up on its own.
func refMLS(n int, links []Link, tab *trace.Table, nonneg bool) [][]float64 {
	w := graph.NewMatrix(n, math.Inf(1))
	for p := range w {
		w[p][p] = 0
	}
	for _, l := range links {
		a, b := l.A.MLS(tab.Stats(l.P, l.Q), tab.Stats(l.Q, l.P))
		w[l.P][l.Q] = math.Min(w[l.P][l.Q], a)
		w[l.Q][l.P] = math.Min(w[l.Q][l.P], b)
	}
	if !nonneg {
		return w
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			from, to := model.ProcID(p), model.ProcID(q)
			if p != q && tab.Active(from, to) {
				x, _ := delay.NoBounds().MLS(tab.Stats(from, to), tab.Stats(to, from))
				w[p][q] = math.Min(w[p][q], x)
			}
		}
	}
	return w
}

// fuzzAssumption maps two bytes to one of the built-in assumptions, with
// bounds in eighths, so links on one pair can disagree.
func fuzzAssumption(kind, v byte) delay.Assumption {
	lo, hi := float64(v%8)/8, float64(v%8+1+v/8%8)/8
	switch kind % 8 {
	case 0:
		return delay.Bounds{PQ: delay.Range{LB: lo, UB: hi}, QP: delay.Range{LB: hi / 2, UB: 2 * hi}}
	case 1:
		return delay.Bounds{PQ: delay.Range{LB: lo, UB: hi}, QP: delay.Range{LB: lo, UB: hi}}
	case 2:
		return delay.RTTBias{B: hi}
	case 3:
		return delay.NoBounds()
	case 4:
		return delay.Bounds{PQ: delay.Range{LB: 0, UB: math.Inf(1)}, QP: delay.Range{LB: lo, UB: hi}}
	case 5:
		return delay.Intersect{Parts: []delay.Assumption{delay.RTTBias{B: hi}, delay.Bounds{PQ: delay.Range{LB: lo, UB: math.Inf(1)}, QP: delay.Range{LB: 0, UB: hi}}}}
	case 6:
		return delay.PairedBias{B: hi}
	default:
		return delay.Bounds{PQ: delay.Range{LB: lo, UB: math.Inf(1)}, QP: delay.Range{LB: hi, UB: math.Inf(1)}}
	}
}

// FuzzMLSReduction drives the m~ls reduction with random links and
// traffic, AssumeNonnegative on and off: duplicate links with different
// assumptions, links on silent pairs, traffic on pairs no link covers and
// one-way traffic all arise. The CSR rows mlsCSRInto compiles, through a
// covered scratch left stale by an earlier reduction, and MLSMatrix must
// both equal the naive reference bit for bit.
func FuzzMLSReduction(f *testing.F) {
	// Header: n-2, AssumeNonnegative (bit 0). Then 4-byte ops on p = b1%n
	// and q = b2%n (p+1 if equal): kind%3 0 links p-q under
	// fuzzAssumption(b3, b3>>3), 1 and 2 send a sample p->q with delay
	// int8(b3)/8 (0x80 is -0).
	f.Add([]byte{2, 1, 0, 0, 1, 0x09, 0, 0, 1, 0x0a, 0, 0, 2, 0x18, 1, 0, 1, 8, 1, 1, 0, 12}) // duplicate links on p0-p1, one on silent p0-p2
	f.Add([]byte{3, 1, 1, 0, 1, 8, 1, 2, 3, 16, 1, 3, 2, 4, 0, 1, 2, 0x21})                   // traffic with no link, one way on p0-p1; a link on silent p1-p2
	f.Add([]byte{4, 1, 0, 0, 1, 0x2e, 0, 1, 0, 0x35, 1, 0, 1, 0x80, 1, 1, 0, 0, 2, 2, 3, 200, 0, 3, 2, 0x0c})
	f.Add([]byte{2, 1, 0, 0, 1, 0x2e, 1, 0, 1, 0, 1, 0, 1, 16, 1, 1, 0, 0}) // the NoBounds shift binds under a PairedBias link
	f.Add([]byte{6, 0, 0, 7, 3, 0x44, 0, 3, 7, 0x07, 1, 7, 3, 250, 1, 3, 7, 6, 2, 4, 5, 3, 2, 5, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, nonneg := 2+int(data[0]%7), data[1]&1 == 1
		tab := trace.NewTable(n, false)
		var links []Link
		for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
			p, q := int(ops[1])%n, int(ops[2])%n
			if p == q {
				q = (p + 1) % n
			}
			if ops[0]%3 == 0 {
				links = append(links, Link{P: model.ProcID(p), Q: model.ProcID(q), A: fuzzAssumption(ops[3], ops[3]>>3)})
				continue
			}
			d := float64(int8(ops[3])) / 8
			if ops[3] == 0x80 {
				d = math.Copysign(0, -1)
			}
			if err := tab.Add(trace.Sample{From: model.ProcID(p), To: model.ProcID(q), RecvClock: d}); err != nil {
				t.Fatal(err)
			}
		}
		opts := MLSOptions{AssumeNonnegative: nonneg}
		want := refMLS(n, links, tab, nonneg)
		dense, err := MLSMatrix(n, links, tab, opts)
		if err != nil {
			t.Fatal(err)
		}
		var g graph.CSR
		covered := []bool{true, true, true, true, true, true, true, true, true, true, true, true}
		if err := mlsCSRInto(&g, &covered, n, links, tab, opts); err != nil {
			t.Fatal(err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		finite := 0
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if !same(dense[p][q], want[p][q]) {
					t.Fatalf("MLSMatrix[%d][%d] = %v, reference %v", p, q, dense[p][q], want[p][q])
				}
				if p != q && !math.IsInf(want[p][q], 1) {
					finite++
				}
			}
			cols, wgts := g.Row(p)
			for e, q := range cols {
				if !same(wgts[e], want[p][q]) {
					t.Fatalf("CSR m~ls[%d][%d] = %v, reference %v", p, q, wgts[e], want[p][q])
				}
			}
		}
		if g.Nnz() != finite {
			t.Fatalf("CSR holds %d edges, reference %d finite shifts", g.Nnz(), finite)
		}
	})
}
