package delay

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/trace"
)

func stats(delays ...float64) trace.DirStats {
	d := trace.NewDirStats()
	for _, x := range delays {
		d.Add(x)
	}
	return d
}

var inf = math.Inf(1)

func TestRangeValidate(t *testing.T) {
	tests := []struct {
		name    string
		r       Range
		wantErr bool
	}{
		{name: "ok", r: Range{0, 1}},
		{name: "point", r: Range{2, 2}},
		{name: "inf upper", r: Range{1, inf}},
		{name: "negative lb", r: Range{-1, 1}, wantErr: true},
		{name: "inverted", r: Range{3, 1}, wantErr: true},
		{name: "nan", r: Range{math.NaN(), 1}, wantErr: true},
		{name: "inf lb", r: Range{inf, inf}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewBounds(tt.r, Range{0, 1})
			if (err != nil) != tt.wantErr {
				t.Errorf("NewBounds error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewRTTBiasValidate(t *testing.T) {
	if _, err := NewRTTBias(-0.5); err == nil {
		t.Error("negative bias accepted")
	}
	if _, err := NewRTTBias(math.Inf(1)); err == nil {
		t.Error("infinite bias accepted")
	}
	if _, err := NewRTTBias(0); err != nil {
		t.Errorf("zero bias rejected: %v", err)
	}
}

func TestNewIntersectValidate(t *testing.T) {
	if _, err := NewIntersect(); err == nil {
		t.Error("empty intersection accepted")
	}
	if _, err := NewIntersect(NoBounds(), nil); err == nil {
		t.Error("nil part accepted")
	}
}

// TestBoundsMLSTable exercises Corollary 6.3 on hand-computed cases.
func TestBoundsMLSTable(t *testing.T) {
	tests := []struct {
		name   string
		bounds Bounds
		pq, qp trace.DirStats
		wantPQ float64
		wantQP float64
	}{
		{
			name:   "classic symmetric single message",
			bounds: Bounds{PQ: Range{1, 5}, QP: Range{1, 5}},
			pq:     stats(3), // d~(p->q) observed 3
			qp:     stats(3),
			// mls(p,q) = min(5-3, 3-1) = 2
			wantPQ: 2, wantQP: 2,
		},
		{
			name:   "tight from upper bound",
			bounds: Bounds{PQ: Range{0, 10}, QP: Range{0, 4}},
			pq:     stats(9),
			qp:     stats(3.5),
			// mls(p,q) = min(4-3.5, 9-0) = 0.5
			// mls(q,p) = min(10-9, 3.5-0) = 1
			wantPQ: 0.5, wantQP: 1,
		},
		{
			name:   "no upper bounds",
			bounds: NoBounds(),
			pq:     stats(2, 7),
			qp:     stats(1),
			// mls(p,q) = min(inf, dmin(pq)-0) = 2
			wantPQ: 2, wantQP: 1,
		},
		{
			name:   "lower bounds only",
			bounds: Bounds{PQ: Range{1.5, inf}, QP: Range{0.5, inf}},
			pq:     stats(2, 7),
			qp:     stats(1),
			wantPQ: 0.5, wantQP: 0.5,
		},
		{
			name:   "silent pq direction",
			bounds: Bounds{PQ: Range{1, 5}, QP: Range{1, 5}},
			pq:     trace.NewDirStats(),
			qp:     stats(2),
			// mls(p,q) = min(5-2, inf) = 3; mls(q,p) = min(5-(-inf), 2-1) = 1
			wantPQ: 3, wantQP: 1,
		},
		{
			name:   "fully silent link",
			bounds: Bounds{PQ: Range{1, 5}, QP: Range{1, 5}},
			pq:     trace.NewDirStats(),
			qp:     trace.NewDirStats(),
			wantPQ: inf, wantQP: inf,
		},
		{
			name:   "multiple messages use extremes",
			bounds: Bounds{PQ: Range{0, 6}, QP: Range{0, 6}},
			pq:     stats(1, 2, 3),
			qp:     stats(4, 5),
			// mls(p,q) = min(6-5, 1-0) = 1; mls(q,p) = min(6-3, 4-0) = 3
			wantPQ: 1, wantQP: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotPQ, gotQP := tt.bounds.MLS(tt.pq, tt.qp)
			if gotPQ != tt.wantPQ {
				t.Errorf("mls(p,q) = %v, want %v", gotPQ, tt.wantPQ)
			}
			if gotQP != tt.wantQP {
				t.Errorf("mls(q,p) = %v, want %v", gotQP, tt.wantQP)
			}
		})
	}
}

// TestRTTBiasMLSTable exercises Corollary 6.6.
func TestRTTBiasMLSTable(t *testing.T) {
	tests := []struct {
		name   string
		b      float64
		pq, qp trace.DirStats
		wantPQ float64
		wantQP float64
	}{
		{
			name: "symmetric delays",
			b:    1,
			pq:   stats(3),
			qp:   stats(3),
			// mls = min(3, (1+3-3)/2) = 0.5
			wantPQ: 0.5, wantQP: 0.5,
		},
		{
			name: "asymmetric delays",
			b:    2,
			pq:   stats(5),
			qp:   stats(1),
			// mls(p,q) = min(5, (2+5-1)/2) = 3
			// mls(q,p) = min(1, (2+1-5)/2) = -1
			wantPQ: 3, wantQP: -1,
		},
		{
			name: "nonnegativity binds",
			b:    10,
			pq:   stats(0.5),
			qp:   stats(0.5),
			// min(0.5, (10+0.5-0.5)/2=5) = 0.5
			wantPQ: 0.5, wantQP: 0.5,
		},
		{
			name:   "silent link",
			b:      1,
			pq:     trace.NewDirStats(),
			qp:     trace.NewDirStats(),
			wantPQ: inf, wantQP: inf,
		},
		{
			name: "one silent direction",
			b:    1,
			pq:   stats(2),
			qp:   trace.NewDirStats(),
			// mls(p,q) = min(2, inf) = 2; mls(q,p) = min(inf, inf) = inf
			wantPQ: 2, wantQP: inf,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bias, err := NewRTTBias(tt.b)
			if err != nil {
				t.Fatalf("NewRTTBias: %v", err)
			}
			gotPQ, gotQP := bias.MLS(tt.pq, tt.qp)
			if gotPQ != tt.wantPQ {
				t.Errorf("mls(p,q) = %v, want %v", gotPQ, tt.wantPQ)
			}
			if gotQP != tt.wantQP {
				t.Errorf("mls(q,p) = %v, want %v", gotQP, tt.wantQP)
			}
		})
	}
}

func TestAdmits(t *testing.T) {
	bounds := Bounds{PQ: Range{1, 5}, QP: Range{0, 2}}
	bias := RTTBias{B: 1}
	tests := []struct {
		name   string
		a      Assumption
		pq, qp []float64
		want   bool
	}{
		{name: "bounds ok", a: bounds, pq: []float64{1, 5}, qp: []float64{0, 2}, want: true},
		{name: "bounds low", a: bounds, pq: []float64{0.5}, want: false},
		{name: "bounds high", a: bounds, qp: []float64{2.5}, want: false},
		{name: "bounds empty", a: bounds, want: true},
		{name: "bias ok", a: bias, pq: []float64{1, 1.5}, qp: []float64{1.2}, want: true},
		{name: "bias violated", a: bias, pq: []float64{1}, qp: []float64{2.5}, want: false},
		{name: "bias negative delay", a: bias, pq: []float64{-0.1}, want: false},
		{name: "bias one-sided ok", a: bias, pq: []float64{0, 100}, want: true},
		{name: "intersect ok", a: Intersect{Parts: []Assumption{bounds, bias}}, pq: []float64{1.2}, qp: []float64{1}, want: true},
		{name: "intersect one fails", a: Intersect{Parts: []Assumption{bounds, bias}}, pq: []float64{4}, qp: []float64{1}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Admits(tt.pq, tt.qp); got != tt.want {
				t.Errorf("Admits = %v, want %v", got, tt.want)
			}
		})
	}
}

// shiftAdmissible reports whether shifting q earlier by s keeps the link's
// actual delays admissible: p->q delays decrease by s, q->p delays increase.
func shiftAdmissible(a Assumption, pq, qp []float64, s float64) bool {
	spq := make([]float64, len(pq))
	for i, d := range pq {
		spq[i] = d - s
	}
	sqp := make([]float64, len(qp))
	for i, d := range qp {
		sqp[i] = d + s
	}
	return a.Admits(spq, sqp)
}

// maxShiftBySearch finds sup{s : shiftAdmissible} by bisection, assuming
// the admissible set is an interval containing 0 (Assumption 1 of the
// paper).
func maxShiftBySearch(a Assumption, pq, qp []float64) float64 {
	if !shiftAdmissible(a, pq, qp, 0) {
		return math.NaN() // inadmissible execution; caller should not happen
	}
	hi := 1.0
	for shiftAdmissible(a, pq, qp, hi) {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if shiftAdmissible(a, pq, qp, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestMLSMatchesShiftSearch is the key property test: the closed-form mls
// of Lemmas 6.2/6.5 (and their Theorem 5.6 combination) must equal the
// empirical supremum of admissible shifts computed directly from Admits.
func TestMLSMatchesShiftSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mkBounds := func() Assumption {
		lb := rng.Float64()
		ub := lb + rng.Float64()*3
		if rng.Intn(3) == 0 {
			ub = inf
		}
		lb2 := rng.Float64()
		ub2 := lb2 + rng.Float64()*3
		if rng.Intn(3) == 0 {
			ub2 = inf
		}
		return Bounds{PQ: Range{lb, ub}, QP: Range{lb2, ub2}}
	}
	mkBias := func() Assumption {
		return RTTBias{B: rng.Float64() * 2}
	}

	for trial := 0; trial < 300; trial++ {
		var a Assumption
		switch trial % 3 {
		case 0:
			a = mkBounds()
		case 1:
			a = mkBias()
		default:
			a = Intersect{Parts: []Assumption{mkBounds(), mkBias()}}
		}
		// Draw admissible delays by rejection sampling.
		var pq, qp []float64
		ok := false
		for attempt := 0; attempt < 200; attempt++ {
			pq = pq[:0]
			qp = qp[:0]
			base := rng.Float64() * 2
			for i := 0; i < 1+rng.Intn(3); i++ {
				pq = append(pq, base+rng.Float64())
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				qp = append(qp, base+rng.Float64())
			}
			if a.Admits(pq, qp) {
				ok = true
				break
			}
		}
		if !ok {
			continue // could not find an admissible instance; skip
		}
		pqStats, qpStats := stats(pq...), stats(qp...)
		wantPQ := maxShiftBySearch(a, pq, qp)
		gotPQ, _ := a.MLS(pqStats, qpStats)
		if math.IsInf(wantPQ, 1) != math.IsInf(gotPQ, 1) {
			t.Fatalf("trial %d (%v): mls = %v, search = %v", trial, a, gotPQ, wantPQ)
		}
		if !math.IsInf(wantPQ, 1) && math.Abs(gotPQ-wantPQ) > 1e-6 {
			t.Fatalf("trial %d (%v): mls = %v, search = %v (pq=%v qp=%v)", trial, a, gotPQ, wantPQ, pq, qp)
		}
		// Other direction: search with roles of the directions swapped.
		wantQP := maxShiftBySearch(swapped{a}, qp, pq)
		_, gotQP := a.MLS(pqStats, qpStats)
		if !math.IsInf(wantQP, 1) && math.Abs(gotQP-wantQP) > 1e-6 {
			t.Fatalf("trial %d (%v): mls(q,p) = %v, search = %v", trial, a, gotQP, wantQP)
		}
	}
}

// TestDecompositionTheorem56 checks mls_{A' ∩ A”} = min(mls', mls”) for
// randomized bounds/bias pairs — exactly the statement of Theorem 5.6.
func TestDecompositionTheorem56(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		lb := rng.Float64()
		b1 := Bounds{PQ: Range{lb, lb + 1 + rng.Float64()}, QP: Range{0, 2 + rng.Float64()}}
		b2 := RTTBias{B: rng.Float64() * 3}
		both := Intersect{Parts: []Assumption{b1, b2}}

		pq := stats(lb+rng.Float64(), lb+rng.Float64())
		qp := stats(rng.Float64()*2, rng.Float64()*2)

		m1pq, m1qp := b1.MLS(pq, qp)
		m2pq, m2qp := b2.MLS(pq, qp)
		gotPQ, gotQP := both.MLS(pq, qp)
		if gotPQ != math.Min(m1pq, m2pq) {
			t.Fatalf("trial %d: intersect mls(p,q) = %v, want min(%v,%v)", trial, gotPQ, m1pq, m2pq)
		}
		if gotQP != math.Min(m1qp, m2qp) {
			t.Fatalf("trial %d: intersect mls(q,p) = %v, want min(%v,%v)", trial, gotQP, m1qp, m2qp)
		}
	}
}

// swapped presents an assumption with its link's directions exchanged,
// so the search oracle finds mls(q,p) as a p->q shift.
type swapped struct{ a Assumption }

func (s swapped) MLS(pq, qp trace.DirStats) (float64, float64) {
	mlsQP, mlsPQ := s.a.MLS(qp, pq)
	return mlsPQ, mlsQP
}
func (s swapped) Admits(pq, qp []float64) bool { return s.a.Admits(qp, pq) }
func (s swapped) String() string               { return "swapped(" + s.a.String() + ")" }

// TestMLSMonotone checks the structural fact a stream's certified cache
// relies on: for every built-in model on DirStats, the shifts never grow
// as observations accumulate, in either orientation of the link (d~min
// only shrinks and d~max only grows, and Corollaries 6.3 and 6.6 are
// monotone in both). PairedBias is left out: its statistics relaxation
// grows with d~max, and a stream re-solves in batch when a shift grows.
func TestMLSMonotone(t *testing.T) {
	b, err := NewBounds(Range{0.5, 2.5}, Range{0.2, 3})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := LowerOnly(0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRTTBias(0.8)
	if err != nil {
		t.Fatal(err)
	}
	both, err := NewIntersect(b, r, NoBounds())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, a := range []Assumption{b, lo, NoBounds(), r, both} {
		for _, orient := range []Assumption{a, swapped{a}} {
			pq, qp := trace.NewDirStats(), trace.NewDirStats()
			prevPQ, prevQP := orient.MLS(pq, qp)
			for i := 0; i < 500; i++ {
				if d := 3 * rng.Float64(); rng.Intn(2) == 0 {
					pq.Add(d)
				} else {
					qp.Add(d)
				}
				mlsPQ, mlsQP := orient.MLS(pq, qp)
				if !(mlsPQ <= prevPQ) || !(mlsQP <= prevQP) {
					t.Fatalf("%v step %d: shifts (%v,%v) -> (%v,%v) grew", orient, i, prevPQ, prevQP, mlsPQ, mlsQP)
				}
				prevPQ, prevQP = mlsPQ, mlsQP
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	b := Bounds{PQ: Range{0, 1}, QP: Range{2, inf}}
	if got := b.String(); got != "bounds(pq=[0,1], qp=[2,inf))" {
		t.Errorf("Bounds.String() = %q", got)
	}
	if got := (RTTBias{B: 0.5}).String(); got != "bias(0.5)" {
		t.Errorf("RTTBias.String() = %q", got)
	}
	in := Intersect{Parts: []Assumption{RTTBias{B: 1}, NoBounds()}}
	if got := in.String(); got != "and(bias(1), bounds(pq=[0,inf), qp=[0,inf)))" {
		t.Errorf("Intersect.String() = %q", got)
	}
}

func TestConstructors(t *testing.T) {
	if _, err := SymmetricBounds(0.5, 2); err != nil {
		t.Errorf("SymmetricBounds: %v", err)
	}
	if _, err := SymmetricBounds(2, 0.5); err == nil {
		t.Error("inverted SymmetricBounds accepted")
	}
	lo, err := LowerOnly(1, 2)
	if err != nil {
		t.Fatalf("LowerOnly: %v", err)
	}
	if !math.IsInf(lo.PQ.UB, 1) || !math.IsInf(lo.QP.UB, 1) {
		t.Error("LowerOnly upper bounds not infinite")
	}
}
