package graph

import (
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
