package trace

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"clocksync/internal/model"
)

// refTable is a deliberately naive Table: a full [from][to] grid of
// DirStats and raw delays, validated and folded by its own code. It
// shares nothing with Table's storage, so FuzzTableMatchesReference
// checks the sparse layout against an independent statement of the
// contract.
type refTable struct {
	n     int
	keep  bool
	stats [][]DirStats
	raw   [][][]float64
	order []LinkKey // unordered pairs by first traffic, first orientation
}

func newRefTable(n int, keep bool) *refTable {
	r := &refTable{n: n, keep: keep, stats: make([][]DirStats, n), raw: make([][][]float64, n)}
	for p := range r.stats {
		r.stats[p] = make([]DirStats, n)
		if keep {
			r.raw[p] = make([][]float64, n)
		}
		for q := range r.stats[p] {
			r.stats[p][q] = DirStats{Min: math.Inf(1), Max: math.Inf(-1)}
		}
	}
	return r
}

func (r *refTable) valid(from, to int) bool {
	return from >= 0 && from < r.n && to >= 0 && to < r.n && from != to
}

// touch records the first traffic between from and to.
func (r *refTable) touch(from, to int) {
	if r.stats[from][to].Count == 0 && r.stats[to][from].Count == 0 {
		r.order = append(r.order, LinkKey{P: model.ProcID(from), Q: model.ProcID(to)})
	}
}

func (r *refTable) add(from, to int, est float64) bool {
	if !r.valid(from, to) || math.IsNaN(est) || math.IsInf(est, 0) {
		return false
	}
	r.touch(from, to)
	s := &r.stats[from][to]
	s.Count++
	s.Min = math.Min(s.Min, est)
	s.Max = math.Max(s.Max, est)
	if r.keep {
		r.raw[from][to] = append(r.raw[from][to], est)
	}
	return true
}

func (r *refTable) merge(from, to int, o DirStats) bool {
	if !r.valid(from, to) || o.Count < 0 {
		return false
	}
	if o.Count == 0 {
		return true
	}
	finite := !math.IsNaN(o.Min) && !math.IsInf(o.Min, 0) && !math.IsNaN(o.Max) && !math.IsInf(o.Max, 0)
	if !finite || o.Min > o.Max {
		return false
	}
	r.touch(from, to)
	s := &r.stats[from][to]
	s.Count += o.Count
	s.Min = math.Min(s.Min, o.Min)
	s.Max = math.Max(s.Max, o.Max)
	return true
}

// json is the wire form by a row-major walk of the whole grid.
func (r *refTable) json() ([]byte, error) {
	out := tableJSON{Processors: r.n}
	for p := 0; p < r.n; p++ {
		for q := 0; q < r.n; q++ {
			if s := r.stats[p][q]; s.Count > 0 {
				out.Pairs = append(out.Pairs, pairStats{From: model.ProcID(p), To: model.ProcID(q), Count: s.Count, Min: s.Min, Max: s.Max})
			}
		}
	}
	return json.Marshal(out)
}

// fuzzValue maps a byte to a delay: mostly eighths in [-16, 16), with a
// few non-finite values to exercise rejection.
func fuzzValue(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(int8(b)) / 8
}

// FuzzTableMatchesReference drives Table and refTable with the same
// random Add/MergeStats sequence (endpoints may be out of range or equal,
// delays non-finite, statistics invalid). Both must accept the same
// operations and end with the same Stats, Raw, Active and JSON bytes, and
// Pairs must visit each active unordered pair exactly twice, once per
// orientation, in order of first traffic.
func FuzzTableMatchesReference(f *testing.F) {
	// Header: n-1, keepRaw. Then 5-byte ops: kind (even Add, odd
	// MergeStats with Count (kind>>1)%4-1), from, to, value or Min, Max.
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 1, 8, 0, 0, 1, 0, 16, 0})                // p0<->p1 both ways, raw kept
	f.Add([]byte{3, 0, 5, 2, 1, 3, 8, 0, 0, 2, 1, 0, 2, 3, 0, 2, 24}) // merge, add reverse, add
	f.Add([]byte{1, 1, 0, 0, 0, 8, 0, 0, 5, 1, 0, 0, 1, 1, 2, 255, 0, 0, 2, 1, 254, 0})
	f.Add([]byte{4, 0, 5, 1, 4, 0, 253, 3, 1, 2, 240, 16, 7, 3, 4, 255, 1, 1, 1, 2, 4, 4})
	f.Add([]byte{5, 1, 0, 5, 0, 8, 0, 0, 0, 5, 9, 0, 0, 2, 3, 1, 0, 0, 3, 2, 2, 0, 5, 1, 3, 3, 0})
	// Strided endpoints (n = 67): hub p0 to every 8th, then every 16th
	// processor, congruent modulo its 4-, 8- and 16-slot windows, some
	// answered, one merged, then a second hub on the same strides.
	strided := []byte{130, 1}
	for k := byte(1); k <= 8; k++ {
		strided = append(strided, 0, 0, 8*k, k, 0)
	}
	for k := byte(1); k <= 4; k++ {
		strided = append(strided, 0, 16*k, 0, 8+k, 0, 2, 0, 16*k+1, 1, 3)
	}
	strided = append(strided, 3, 64, 0, 4, 12)
	f.Add(strided)
	second := []byte{131, 0}
	for k := byte(1); k <= 8; k++ { // p1 <-> p(1+8k), merged one way, added back
		second = append(second, 3, 1, 1+8*k, k, 2*k, 0, 1+8*k, 1, k, 0)
	}
	f.Add(second)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// A header byte past 127 selects 65 to 128 processors, wide
		// enough for strides to span a source's windows.
		n, keep := 1+int(data[0]%6), data[1]&1 == 1
		if data[0] >= 128 {
			n = 65 + int(data[0]%64)
		}
		tab, ref := NewTable(n, keep), newRefTable(n, keep)
		for ops := data[2:]; len(ops) >= 5; ops = ops[5:] {
			from, to := int(ops[1]%byte(n+1)), int(ops[2]%byte(n+1))
			if ops[0]&1 == 0 {
				v := fuzzValue(ops[3])
				err := tab.Add(Sample{From: model.ProcID(from), To: model.ProcID(to), RecvClock: v})
				if ok := ref.add(from, to, v); (err == nil) != ok {
					t.Fatalf("Add(p%d->p%d, %v) = %v, reference accepts = %v", from, to, v, err, ok)
				}
				continue
			}
			s := DirStats{Count: int(ops[0]>>1)%4 - 1, Min: fuzzValue(ops[3]), Max: fuzzValue(ops[4])}
			err := tab.MergeStats(model.ProcID(from), model.ProcID(to), s)
			if ok := ref.merge(from, to, s); (err == nil) != ok {
				t.Fatalf("MergeStats(p%d->p%d, %v) = %v, reference accepts = %v", from, to, s, err, ok)
			}
		}
		sameAsRef(t, tab, ref)
	})
}

// sameAsRef checks that tab and ref hold the same Stats, Raw, Active and
// JSON bytes, and that Pairs visits each active unordered pair exactly
// twice, once per orientation, in order of first traffic.
func sameAsRef(t *testing.T, tab *Table, ref *refTable) {
	t.Helper()
	n := ref.n
	bits := func(s DirStats) [3]uint64 {
		return [3]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max)}
	}
	active := 0
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			from, to := model.ProcID(p), model.ProcID(q)
			if g, w := tab.Stats(from, to), ref.stats[p][q]; bits(g) != bits(w) {
				t.Fatalf("Stats(%d,%d) = %v, want %v", p, q, g, w)
			}
			var w []float64
			if ref.keep {
				w = ref.raw[p][q]
			}
			if g := tab.Raw(from, to); !slices.Equal(g, w) {
				t.Fatalf("Raw(%d,%d) = %v, want %v", p, q, g, w)
			}
			want := ref.stats[p][q].Count > 0 || ref.stats[q][p].Count > 0
			if tab.Active(from, to) != want {
				t.Fatalf("Active(%d,%d) = %v, want %v", p, q, !want, want)
			}
			if want && p < q {
				active++
			}
			if p == q {
				continue
			}
			pq, qp, id := tab.Pair(from, to)
			if bits(pq) != bits(ref.stats[p][q]) || bits(qp) != bits(ref.stats[q][p]) || (id >= 0) != want {
				t.Fatalf("Pair(%d,%d) = %v, %v, %d; want %v, %v, active %v", p, q, pq, qp, id, ref.stats[p][q], ref.stats[q][p], want)
			}
			if id >= 0 {
				if a, b, _, _ := tab.PairAt(id); Canon(a, b) != Canon(from, to) {
					t.Fatalf("Pair(%d,%d) has rank %d, PairAt(%d) = (%d,%d)", p, q, id, id, a, b)
				}
			}
		}
	}

	got, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.json()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("JSON:\n got %s\nwant %s", got, want)
	}

	type visit struct{ p, q model.ProcID }
	var visits []visit
	seen := map[LinkKey]int{}
	tab.Pairs(func(p, q model.ProcID, pq, qp DirStats) {
		if bits(pq) != bits(ref.stats[p][q]) || bits(qp) != bits(ref.stats[q][p]) {
			t.Fatalf("Pairs(%d,%d) passed %v/%v, want %v/%v", p, q, pq, qp, ref.stats[p][q], ref.stats[q][p])
		}
		visits = append(visits, visit{p, q})
		seen[Canon(p, q)]++
	})
	if len(seen) != active || tab.NumPairs() != active {
		t.Fatalf("Pairs visited %d unordered pairs, NumPairs %d, want %d", len(seen), tab.NumPairs(), active)
	}
	for k, c := range seen {
		if c != 2 {
			t.Fatalf("Pairs visited {p%d,p%d} %d times, want 2", k.P, k.Q, c)
		}
	}
	for i, k := range ref.order {
		if visits[2*i] != (visit{k.P, k.Q}) || visits[2*i+1] != (visit{k.Q, k.P}) {
			t.Fatalf("Pairs visit %d = %v then %v, want first traffic p%d->p%d then its reverse", i, visits[2*i], visits[2*i+1], k.P, k.Q)
		}
	}
}
