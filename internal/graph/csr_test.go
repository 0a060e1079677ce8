package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomCSRAndDense stages the same random edge set into a CSR and a Dense
// matrix (duplicates min-combined on both sides).
func randomCSRAndDense(rng *rand.Rand, n int, m int, lo, hi float64) (*CSR, *Dense) {
	g := NewCSR(n)
	d := NewDense(n)
	d.Fill(Inf)
	for e := 0; e < m; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		w := lo + (hi-lo)*rng.Float64()
		g.MustAddEdge(u, v, w)
		if u != v && w < d.At(u, v) {
			d.Set(u, v, w)
		}
	}
	g.Build()
	return g, d
}

func TestCSRBuildSortedDeduped(t *testing.T) {
	g := NewCSR(4)
	g.MustAddEdge(2, 1, 5)
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(2, 1, 3) // duplicate, smaller wins
	g.MustAddEdge(2, 1, 7) // duplicate, larger loses
	g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(2, 2, 9)           // self loop ignored
	g.MustAddEdge(1, 0, math.Inf(1)) // +Inf ignored
	if err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if err := g.AddEdge(0, 9, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	g.Build()
	if g.Nnz() != 3 {
		t.Fatalf("Nnz = %d, want 3", g.Nnz())
	}
	cols, wgts := g.Row(0)
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 3 || wgts[0] != 2 || wgts[1] != 1 {
		t.Fatalf("row 0 = %v %v", cols, wgts)
	}
	cols, wgts = g.Row(2)
	if len(cols) != 1 || cols[0] != 1 || wgts[0] != 3 {
		t.Fatalf("row 2 = %v %v (duplicate min-combine)", cols, wgts)
	}
	if g.Degree(1) != 0 {
		t.Fatalf("degree(1) = %d", g.Degree(1))
	}
}

func TestCSRBuildIdempotentAndReset(t *testing.T) {
	g := NewCSR(3)
	g.MustAddEdge(0, 1, 1)
	g.Build()
	g.Build() // idempotent
	if g.Nnz() != 1 {
		t.Fatalf("Nnz = %d after double build", g.Nnz())
	}
	g.Reset(2)
	if g.Nnz() != 0 || g.N() != 2 || g.Pending() != 0 {
		t.Fatalf("Reset left state: nnz=%d n=%d pending=%d", g.Nnz(), g.N(), g.Pending())
	}
	g.MustAddEdge(1, 0, 4)
	g.Build()
	cols, _ := g.Row(1)
	if len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("row 1 after reset = %v", cols)
	}
}

func TestCSRFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		g, d := randomCSRAndDense(rng, n, 3*n, -1, 2)
		var h CSR
		h.FromDense(d)
		if g.Nnz() != h.Nnz() {
			t.Fatalf("nnz mismatch: %d vs %d", g.Nnz(), h.Nnz())
		}
		for u := 0; u < n; u++ {
			gc, gw := g.Row(u)
			hc, hw := h.Row(u)
			if len(gc) != len(hc) {
				t.Fatalf("row %d length mismatch", u)
			}
			for i := range gc {
				if gc[i] != hc[i] || gw[i] != hw[i] {
					t.Fatalf("row %d entry %d: (%d,%v) vs (%d,%v)", u, i, gc[i], gw[i], hc[i], hw[i])
				}
			}
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		g, _ := randomCSRAndDense(rng, n, 2*n, 0, 1)
		var gt CSR
		g.TransposeInto(&gt)
		if gt.Nnz() != g.Nnz() {
			t.Fatalf("transpose nnz %d, want %d", gt.Nnz(), g.Nnz())
		}
		for u := 0; u < n; u++ {
			cols, wgts := g.Row(u)
			for e, v := range cols {
				tc, tw := gt.Row(v)
				found := false
				for i, back := range tc {
					if back == u && tw[i] == wgts[e] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge %d->%d missing from transpose", u, v)
				}
			}
			// ascending columns in the transpose
			tc, _ := gt.Row(u)
			for i := 1; i < len(tc); i++ {
				if tc[i-1] >= tc[i] {
					t.Fatalf("transpose row %d not ascending: %v", u, tc)
				}
			}
		}
	}
}

func TestSCCCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s SCCScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(15)
		g, d := randomCSRAndDense(rng, n, 2*n, 0, 1)
		nc := SCCCSR(g, &s)
		checkSCC(t, d.Rows(), s.CompOf, nc)
	}
}

// closureRows expands a CSR closure into a matrix, +Inf where absent.
func closureRows(out *CSR) [][]float64 {
	n := out.N()
	got := NewMatrix(n, Inf)
	for u := 0; u < n; u++ {
		cols, wgts := out.Row(u)
		for e, v := range cols {
			got[u][v] = wgts[e]
		}
	}
	return got
}

func TestAllPairsJohnsonCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var out CSR
	var s JohnsonScratch
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(12)
		g, d := randomCSRAndDense(rng, n, 3*n, -0.2, 1.8)
		d.FillDiag(0)
		want, wantOK := refFloydWarshall(d.Rows())
		err := AllPairsJohnsonCSR(g, &out, &s)
		if (err == nil) != wantOK {
			t.Fatalf("error %v, reference feasible %v", err, wantOK)
		}
		if !wantOK {
			continue // both detected a negative cycle
		}
		got := closureRows(&out)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				gw, ww := got[u][v], want[u][v]
				if math.IsInf(gw, 1) != math.IsInf(ww, 1) {
					t.Fatalf("reachability mismatch at (%d,%d): %v vs %v", u, v, gw, ww)
				}
				if !math.IsInf(ww, 1) && math.Abs(gw-ww) > 1e-9 {
					t.Fatalf("dist (%d,%d): %v vs %v", u, v, gw, ww)
				}
			}
		}
	}
}

// TestJohnsonMatchesFloydWarshall cross-checks the two all-pairs kernels,
// including graphs with negative edges.
func TestJohnsonMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var out CSR
	var s JohnsonScratch
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(9)
		// Negative edges without negative cycles: derive weights from
		// potentials plus non-negative noise: w(u,v) = base + p[u] - p[v].
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()*4 - 2
		}
		d := NewDense(n)
		d.Fill(Inf)
		d.FillDiag(0)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() > 0.4 {
					continue
				}
				d.Set(u, v, rng.Float64()*2+p[u]-p[v])
			}
		}
		var g CSR
		g.FromDense(d)
		if err := AllPairsJohnsonCSR(&g, &out, &s); err != nil {
			t.Fatalf("trial %d: Johnson: %v", trial, err)
		}
		if err := FloydWarshallDense(d, nil); err != nil {
			t.Fatalf("trial %d: Floyd-Warshall: %v", trial, err)
		}
		jo := closureRows(&out)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := d.At(i, j), jo[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Fatalf("trial %d: reachability differs at (%d,%d): %v vs %v", trial, i, j, a, b)
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("trial %d: dist(%d,%d): FW %v vs Johnson %v", trial, i, j, a, b)
				}
			}
		}
	}
}

func TestJohnsonNegativeCycle(t *testing.T) {
	g := NewCSR(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, -2)
	var out CSR
	var s JohnsonScratch
	if err := AllPairsJohnsonCSR(g, &out, &s); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("error = %v, want ErrNegativeCycle", err)
	}
}

// TestJohnsonDisconnected: unreachable pairs are absent from the closure,
// and every node reaches itself at 0.
func TestJohnsonDisconnected(t *testing.T) {
	g := NewCSR(3)
	g.MustAddEdge(0, 1, 5)
	var out CSR
	var s JohnsonScratch
	if err := AllPairsJohnsonCSR(g, &out, &s); err != nil {
		t.Fatalf("Johnson: %v", err)
	}
	d := closureRows(&out)
	if d[0][1] != 5 || !math.IsInf(d[1][0], 1) || !math.IsInf(d[0][2], 1) {
		t.Errorf("distances wrong: %v", d)
	}
	for i := 0; i < 3; i++ {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v", i, i, d[i][i])
		}
	}
	if out.Nnz() != 4 {
		t.Errorf("closure has %d entries, want 4", out.Nnz())
	}
}

func TestMaxMeanCycleCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		g, d := randomCSRAndDense(rng, n, 3*n, -1, 2)
		want, wantOK := refMaxMeanCycle(d.Rows())
		mc, ok := MaxMeanCycleCSR(g)
		if ok != wantOK {
			t.Fatalf("ok mismatch: %v vs %v", ok, wantOK)
		}
		if ok {
			checkCycleMean(t, d.Rows(), mc, want)
		}
	}
}
