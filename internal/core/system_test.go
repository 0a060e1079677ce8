package core

import (
	"math"
	"testing"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// ringTrace builds a trace for a small system with one message each way
// between adjacent processors, given true starts and a constant delay.
func ringTrace(t *testing.T, starts []float64, d float64) *trace.Table {
	t.Helper()
	n := len(starts)
	b := model.NewBuilder(starts)
	sendAt := 0.0
	for _, s := range starts {
		if s > sendAt {
			sendAt = s
		}
	}
	sendAt += 1
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if n == 2 && i == 1 {
			break // avoid duplicating the single link of a 2-"ring"
		}
		if _, err := b.AddMessageDelay(model.ProcID(i), model.ProcID(j), sendAt, d); err != nil {
			t.Fatalf("AddMessageDelay: %v", err)
		}
		if _, err := b.AddMessageDelay(model.ProcID(j), model.ProcID(i), sendAt, d); err != nil {
			t.Fatalf("AddMessageDelay: %v", err)
		}
	}
	e, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tab, err := trace.Collect(e, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return tab
}

func symBounds(t *testing.T, lb, ub float64) delay.Bounds {
	t.Helper()
	b, err := delay.SymmetricBounds(lb, ub)
	if err != nil {
		t.Fatalf("SymmetricBounds: %v", err)
	}
	return b
}

func TestMLSMatrixBasic(t *testing.T) {
	starts := []float64{0, 2}
	tab := ringTrace(t, starts, 3) // delays 3 each way, skew 2
	links := []Link{{P: 0, Q: 1, A: symBounds(t, 1, 5)}}
	mls, err := MLSMatrix(2, links, tab, DefaultMLSOptions())
	if err != nil {
		t.Fatalf("MLSMatrix: %v", err)
	}
	// d~(0->1) = 3 - 2 = 1; d~(1->0) = 3 + 2 = 5.
	// m~ls(0,1) = min(5 - 5, 1 - 1) = 0; m~ls(1,0) = min(5 - 1, 5 - 1) = 4.
	if mls[0][1] != 0 {
		t.Errorf("mls[0][1] = %v, want 0", mls[0][1])
	}
	if mls[1][0] != 4 {
		t.Errorf("mls[1][0] = %v, want 4", mls[1][0])
	}
}

func TestMLSMatrixIntersectsDuplicateLinks(t *testing.T) {
	starts := []float64{0, 0}
	tab := ringTrace(t, starts, 3)
	bias, err := delay.NewRTTBias(1)
	if err != nil {
		t.Fatalf("NewRTTBias: %v", err)
	}
	wide := symBounds(t, 0, 100)
	links := []Link{
		{P: 0, Q: 1, A: wide},
		{P: 0, Q: 1, A: bias},
	}
	mls, err := MLSMatrix(2, links, tab, MLSOptions{})
	if err != nil {
		t.Fatalf("MLSMatrix: %v", err)
	}
	wPQ, _ := wide.MLS(tab.Stats(0, 1), tab.Stats(1, 0))
	bPQ, _ := bias.MLS(tab.Stats(0, 1), tab.Stats(1, 0))
	if want := math.Min(wPQ, bPQ); mls[0][1] != want {
		t.Errorf("mls[0][1] = %v, want min(%v,%v)", mls[0][1], wPQ, bPQ)
	}
}

func TestMLSMatrixLinkValidation(t *testing.T) {
	tab := trace.NewTable(2, false)
	tests := []struct {
		name string
		link Link
	}{
		{name: "self loop", link: Link{P: 1, Q: 1, A: delay.NoBounds()}},
		{name: "out of range", link: Link{P: 0, Q: 5, A: delay.NoBounds()}},
		{name: "nil assumption", link: Link{P: 0, Q: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := MLSMatrix(2, []Link{tt.link}, tab, MLSOptions{}); err == nil {
				t.Error("error = nil, want non-nil")
			}
		})
	}
}

func TestMLSMatrixTableSizeMismatch(t *testing.T) {
	tab := trace.NewTable(3, false)
	if _, err := MLSMatrix(2, nil, tab, MLSOptions{}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestMLSMatrixAssumeNonnegative(t *testing.T) {
	// Traffic on a pair with no registered link: with AssumeNonnegative the
	// no-bounds model applies; without it the pair is unconstrained.
	starts := []float64{0, 0}
	tab := ringTrace(t, starts, 2)

	withNN, err := MLSMatrix(2, nil, tab, MLSOptions{AssumeNonnegative: true})
	if err != nil {
		t.Fatalf("MLSMatrix: %v", err)
	}
	if withNN[0][1] != 2 { // d~min(0,1) = 2
		t.Errorf("mls[0][1] = %v, want 2", withNN[0][1])
	}

	without, err := MLSMatrix(2, nil, tab, MLSOptions{})
	if err != nil {
		t.Fatalf("MLSMatrix: %v", err)
	}
	if !math.IsInf(without[0][1], 1) {
		t.Errorf("mls[0][1] = %v, want +Inf", without[0][1])
	}
}

// TestMLSNonnegativeSinksEachDirectionOnce: with AssumeNonnegative the
// reduction stages one CSR edge per observed direction, whether a link
// covers the pair (in either orientation) or the NoBounds walk reaches
// it, and links on silent pairs stage nothing. So a table whose active
// pairs all carry traffic both ways stages exactly 2 per active pair, the
// distinct directed pairs, and the compiled weights equal the dense
// assembly's.
func TestMLSNonnegativeSinksEachDirectionOnce(t *testing.T) {
	const n = 12
	tab := trace.NewTable(n, false)
	bounds := symBounds(t, 0, 4)
	links := []Link{{P: 0, Q: 1, A: bounds}, {P: 5, Q: 2, A: bounds}} // silent pairs
	active := 0
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if (p*7+q*3)%4 != 0 {
				continue
			}
			active++
			switch active % 3 {
			case 0:
				links = append(links, Link{P: model.ProcID(p), Q: model.ProcID(q), A: bounds})
			case 1:
				links = append(links, Link{P: model.ProcID(q), Q: model.ProcID(p), A: bounds})
			}
			for k := 0; k < 3; k++ {
				d := float64(p+q+k) / 10
				if err := tab.Add(trace.Sample{From: model.ProcID(q), To: model.ProcID(p), RecvClock: d}); err != nil {
					t.Fatal(err)
				}
				if err := tab.Add(trace.Sample{From: model.ProcID(p), To: model.ProcID(q), RecvClock: 2 * d}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if active == 0 {
		t.Fatal("no active pairs")
	}
	if tab.Active(0, 1) || tab.Active(5, 2) {
		t.Fatal("a silent-pair link has traffic")
	}
	var g graph.CSR
	if err := mlsCSRInto(&g, new([]bool), n, links, tab, DefaultMLSOptions()); err != nil {
		t.Fatal(err)
	}
	if g.Pending() != 2*active {
		t.Errorf("staged %d edges for %d active pairs, want %d", g.Pending(), active, 2*active)
	}
	dense, err := MLSMatrix(n, links, tab, DefaultMLSOptions())
	if err != nil {
		t.Fatal(err)
	}
	nnz := 0
	for u := 0; u < n; u++ {
		cols, wgts := g.Row(u)
		nnz += len(cols)
		for e, v := range cols {
			if wgts[e] != dense[u][v] {
				t.Errorf("mls[%d][%d] = %v, dense %v", u, v, wgts[e], dense[u][v])
			}
		}
	}
	if nnz != 2*active {
		t.Errorf("%d compiled edges, want %d", nnz, 2*active)
	}

	// One-way traffic stages only the observed direction.
	oneWay := trace.NewTable(3, false)
	if err := oneWay.Add(trace.Sample{From: 2, To: 0, RecvClock: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mlsCSRInto(&g, new([]bool), 3, nil, oneWay, DefaultMLSOptions()); err != nil {
		t.Fatal(err)
	}
	if g.Pending() != 1 {
		t.Errorf("one-way pair staged %d edges, want 1", g.Pending())
	}
}

func TestMLSMatrixNilTable(t *testing.T) {
	// A system can be synchronized "blind" (no traffic): everything is
	// unconstrained except the diagonal.
	links := []Link{{P: 0, Q: 1, A: symBounds(t, 0, 1)}}
	mls, err := MLSMatrix(2, links, nil, DefaultMLSOptions())
	if err != nil {
		t.Fatalf("MLSMatrix: %v", err)
	}
	if !math.IsInf(mls[0][1], 1) || !math.IsInf(mls[1][0], 1) {
		t.Errorf("silent link mls = %v/%v, want +Inf/+Inf", mls[0][1], mls[1][0])
	}
}

// TestSynchronizeSystemEndToEnd runs the full pipeline on a 4-ring with
// symmetric constant delays. The optimal precision is dictated by the
// antipodal pairs: m~s telescopes over two hops, so A_max = 2*(U-L)/2 = 4.
// Root-based corrections stay within the guarantee; centered corrections
// additionally recover the true skews exactly (rho = 0) because delays are
// symmetric.
func TestSynchronizeSystemEndToEnd(t *testing.T) {
	starts := []float64{0, 1.5, -2, 0.25}
	const d = 3.0
	tab := ringTrace(t, starts, d)
	bounds := symBounds(t, 1, 5)
	links := []Link{
		{P: 0, Q: 1, A: bounds},
		{P: 1, Q: 2, A: bounds},
		{P: 2, Q: 3, A: bounds},
		{P: 3, Q: 0, A: bounds},
	}
	res, err := SynchronizeSystem(4, links, tab, DefaultMLSOptions(), Options{})
	if err != nil {
		t.Fatalf("SynchronizeSystem: %v", err)
	}
	if want := 4.0; math.Abs(res.Precision-want) > 1e-9 {
		t.Errorf("Precision = %v, want %v (antipodal pair dominates)", res.Precision, want)
	}
	rho, err := Rho(starts, res.Corrections)
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	if rho > res.Precision+1e-9 {
		t.Errorf("rho = %v exceeds precision %v", rho, res.Precision)
	}
	if len(res.Components) != 1 {
		t.Errorf("Components = %v, want one", res.Components)
	}

	centered, err := SynchronizeSystem(4, links, tab, DefaultMLSOptions(), Options{Centered: true})
	if err != nil {
		t.Fatalf("SynchronizeSystem(centered): %v", err)
	}
	if math.Abs(centered.Precision-res.Precision) > 1e-9 {
		t.Errorf("centered precision = %v, want %v", centered.Precision, res.Precision)
	}
	crho, err := Rho(starts, centered.Corrections)
	if err != nil {
		t.Fatalf("Rho(centered): %v", err)
	}
	if crho > 1e-9 {
		t.Errorf("centered rho = %v, want 0 for symmetric delays", crho)
	}
}
