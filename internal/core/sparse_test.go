package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clocksync/internal/graph"
	"clocksync/internal/sim"
)

// sparseFamily weights, in [0.01, 1), one of three catalogue families on
// about n nodes: a ring of cliques of at most 32 (family 0), a random
// geometric graph of expected degree about 8 and at most 12 (1), or a
// chord ring with n chord draws (2).
func sparseFamily(rng *rand.Rand, family, n int) *graph.CSR {
	switch family {
	case 1:
		radius := math.Sqrt(8 / (math.Pi * float64(n)))
		return sim.WeightedCSR(rng, n, sim.RandomGeometric(rng, n, radius, 12), 0.01, 1)
	case 2:
		return sim.WeightedCSR(rng, n, sim.ChordRing(rng, n, n), 0.01, 1)
	default:
		size := min(32, n/2+1)
		cliques := (n + size - 1) / size
		return sim.WeightedCSR(rng, cliques*size, sim.RingOfCliques(cliques, size), 0.01, 1)
	}
}

// csrToMatrix expands a CSR adjacency into the equivalent mls row matrix.
func csrToMatrix(g *graph.CSR) [][]float64 {
	n := g.N()
	mls := graph.NewMatrix(n, graph.Inf)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for u := 0; u < n; u++ {
		cols, wgts := g.Row(u)
		for e, v := range cols {
			mls[u][cols[e]] = wgts[e]
			_ = v
		}
	}
	return mls
}

// compareResultsBitIdentical asserts two results agree bit for bit on
// corrections, precision, and component structure. MS is compared only on
// in-component entries: the sparse backend materializes m~s
// block-diagonally, leaving cross-component entries +Inf that the dense
// closure may fill with one-directional distances no consumer reads.
func compareResultsBitIdentical(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if !sameFloats(want.Corrections, got.Corrections) {
		t.Fatalf("%s: corrections differ\nwant %v\ngot  %v", tag, want.Corrections, got.Corrections)
	}
	if math.Float64bits(want.Precision) != math.Float64bits(got.Precision) {
		t.Fatalf("%s: precision %v vs %v", tag, want.Precision, got.Precision)
	}
	if !sameFloats(want.ComponentPrecision, got.ComponentPrecision) {
		t.Fatalf("%s: component precision %v vs %v", tag, want.ComponentPrecision, got.ComponentPrecision)
	}
	if !sameFloats(want.ComponentLowerBound, got.ComponentLowerBound) {
		t.Fatalf("%s: component lower bound %v vs %v", tag, want.ComponentLowerBound, got.ComponentLowerBound)
	}
	if len(want.Components) != len(got.Components) {
		t.Fatalf("%s: %d vs %d components", tag, len(want.Components), len(got.Components))
	}
	for ci := range want.Components {
		if !sameInts(want.Components[ci], got.Components[ci]) {
			t.Fatalf("%s: component %d differs", tag, ci)
		}
	}
	if want.MS != nil && got.MS != nil {
		for _, comp := range want.Components {
			for _, p := range comp {
				for _, q := range comp {
					if math.Float64bits(want.MS[p][q]) != math.Float64bits(got.MS[p][q]) {
						t.Fatalf("%s: ms[%d][%d] %v vs %v", tag, p, q, want.MS[p][q], got.MS[p][q])
					}
				}
			}
		}
	}
}

// TestSparseMatchesDenseBitIdentical: the exact sparse path (SolverSparse,
// and SolverHierarchical while every component fits the default cluster
// size) must reproduce the dense backend bit for bit on randomized
// instances — connected and disconnected, plain and centered, serial and
// parallel.
func TestSparseMatchesDenseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		var mls [][]float64
		if trial%2 == 0 {
			mls = randomFeasibleMLS(rng, n)
		} else {
			mls = randomMLS(rng, n, 0.15+0.5*rng.Float64())
		}
		opts := Options{
			Centered:    trial%3 == 0,
			Root:        rng.Intn(n),
			Parallelism: 1 + rng.Intn(4),
		}
		optsD := opts
		optsD.Solver = SolverDense
		want, errD := Synchronize(mls, optsD)
		for _, solver := range []Solver{SolverSparse, SolverHierarchical} {
			optsS := opts
			optsS.Solver = solver
			got, errS := Synchronize(mls, optsS)
			if (errD == nil) != (errS == nil) {
				t.Fatalf("trial %d solver %v: dense err %v, sparse err %v", trial, solver, errD, errS)
			}
			if errD != nil {
				continue
			}
			if !sameFloats(want.ComponentLowerBound, want.ComponentPrecision) {
				t.Fatalf("trial %d: exact lower bound %v, precision %v", trial, want.ComponentLowerBound, want.ComponentPrecision)
			}
			compareResultsBitIdentical(t, solver.String(), want, got)
		}
	}
}

// TestSyncCSRMatchesSync: assembling the same instance via the CSR entry
// point gives the same result as the matrix entry point.
func TestSyncCSRMatchesSync(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewSynchronizer()
	defer s.Close()
	for trial := 0; trial < 20; trial++ {
		g := sparseFamily(rng, trial%3, 60+rng.Intn(60))
		mls := csrToMatrix(g)
		opts := Options{Solver: SolverSparse, Centered: trial%2 == 0}
		want, err := Synchronize(mls, opts)
		if err != nil {
			t.Fatalf("Synchronize: %v", err)
		}
		got, err := s.SyncCSR(g, opts)
		if err != nil {
			t.Fatalf("SyncCSR: %v", err)
		}
		compareResultsBitIdentical(t, "csr", want, got.Clone())
	}
}

// TestSparseAutoLargeExact: above the dense cutoff but below the exact
// component ceiling, SolverAuto takes the sparse path yet must still be
// bit-identical to the dense backend (the per-component closure is exact).
func TestSparseAutoLargeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	g := sim.WeightedCSR(rng, 560, sim.RingOfCliques(40, 14), 0.01, 1) // n > autoDenseMaxN
	mls := csrToMatrix(g)
	want, err := Synchronize(mls, Options{Solver: SolverDense})
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	got, err := Synchronize(mls, Options{}) // Auto
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if !sameFloats(want.Corrections, got.Corrections) {
		t.Fatal("auto sparse corrections differ from dense")
	}
	if math.Float64bits(want.Precision) != math.Float64bits(got.Precision) {
		t.Fatalf("precision %v vs %v", want.Precision, got.Precision)
	}
	// Auto keeps every n <= autoDenseMaxN instance on the dense backend.
	small := randomFeasibleMLS(rng, 24)
	a, err := Synchronize(small, Options{})
	if err != nil {
		t.Fatalf("auto small: %v", err)
	}
	d, err := Synchronize(small, Options{Solver: SolverDense})
	if err != nil {
		t.Fatalf("dense small: %v", err)
	}
	compareResultsBitIdentical(t, "auto-small", d, a)
}

// TestSparseNoMSBeyondLimit: past msMaterializeMax the sparse pipeline
// returns no m~s matrix, PairBound refuses politely, and the quality
// report is the certified bracket: achieved λ̂ = Precision over optimal
// λ_B = ComponentLowerBound, a ratio above 1 on this hierarchical solve.
func TestSparseNoMSBeyondLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := sim.WeightedCSR(rng, 1056, sim.RingOfCliques(33, 32), 0.01, 1) // n > 1024
	s := NewSynchronizer()
	defer s.Close()
	res, err := s.SyncCSR(g, Options{Solver: SolverHierarchical})
	if err != nil {
		t.Fatalf("SyncCSR: %v", err)
	}
	if res.MS != nil {
		t.Fatal("MS materialized past msMaterializeMax")
	}
	if math.IsInf(res.Precision, 1) {
		t.Fatal("ring of cliques should form one component")
	}
	if _, err := res.PairBound(0, 1); err == nil {
		t.Fatal("PairBound succeeded without an m~s matrix")
	}
	rep := AssessQuality(res)
	if rep.Pairs != 0 || rep.Achieved != res.Precision || rep.Optimal != res.ComponentLowerBound[0] || rep.Ratio <= 1 {
		t.Fatalf("degenerate quality report = %+v", rep)
	}
	for p, c := range res.Corrections {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("correction p%d = %v", p, c)
		}
	}
}

// TestSparseSolveMemoryCeiling: a 10k-node solve must never allocate
// anything close to the 800 MB an n×n float64 matrix would need — the
// acceptance bar for the sparse pipeline's memory story.
func TestSparseSolveMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node solve")
	}
	rng := rand.New(rand.NewSource(10))
	g := sim.WeightedCSR(rng, 10016, sim.RingOfCliques(313, 32), 0.01, 1)
	s := NewSynchronizer()
	defer s.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.SyncCSR(g, Options{Solver: SolverHierarchical})
	if err != nil {
		t.Fatalf("SyncCSR: %v", err)
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	nsq := uint64(g.N()) * uint64(g.N()) * 8
	if total >= nsq/2 {
		t.Fatalf("solve allocated %d MB cumulatively — within 2x of an n×n matrix (%d MB)", total>>20, nsq>>20)
	}
	if math.IsInf(res.Precision, 1) || math.IsNaN(res.Precision) {
		t.Fatalf("precision = %v", res.Precision)
	}
	if len(res.Corrections) != g.N() {
		t.Fatalf("%d corrections for %d nodes", len(res.Corrections), g.N())
	}
}

// FuzzSparseEquivalence drives random sparse topologies through all three
// backends: dense and exact-sparse must agree bit for bit; the
// hierarchical solver (forced small clusters) must certify a precision at
// least the optimum, with admissible corrections under the exact m~s.
func FuzzSparseEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(24))
	f.Add(int64(2), uint8(1), uint16(40))
	f.Add(int64(3), uint8(2), uint16(33))
	f.Fuzz(func(t *testing.T, seed int64, topoByte uint8, nRaw uint16) {
		n := 4 + int(nRaw%60)
		rng := rand.New(rand.NewSource(seed))
		g := sparseFamily(rng, int(topoByte%3), n)
		mls := csrToMatrix(g)
		dense, errD := Synchronize(mls, Options{Solver: SolverDense})
		sparse, errS := Synchronize(mls, Options{Solver: SolverSparse})
		if (errD == nil) != (errS == nil) {
			t.Fatalf("dense err %v vs sparse err %v", errD, errS)
		}
		if errD != nil {
			return
		}
		compareResultsBitIdentical(t, "fuzz", dense, sparse)

		hier, errH := Synchronize(mls, Options{Solver: SolverHierarchical, ClusterSize: 8})
		if errH != nil {
			t.Fatalf("hierarchical: %v", errH)
		}
		for ci, comp := range dense.Components {
			if hier.ComponentPrecision[ci] < dense.ComponentPrecision[ci]-1e-9 {
				t.Fatalf("component %d: certified %v below optimum %v",
					ci, hier.ComponentPrecision[ci], dense.ComponentPrecision[ci])
			}
			lam := hier.ComponentPrecision[ci]
			for _, p := range comp {
				for _, q := range comp {
					if p == q {
						continue
					}
					if b := dense.MS[p][q] + hier.Corrections[q] - hier.Corrections[p]; b > lam+1e-6 {
						t.Fatalf("pair (%d,%d): bound %v exceeds certificate %v", p, q, b, lam)
					}
				}
			}
		}
	})
}
