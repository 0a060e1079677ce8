package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// hierInstance builds a ring-of-cliques instance big enough that a forced
// ClusterSize actually splits it, plus the dense reference solution.
func hierInstance(t *testing.T, seed int64, cliques, size int) ([][]float64, *Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := sim.WeightedCSR(rng, cliques*size, sim.RingOfCliques(cliques, size), 0.01, 1)
	mls := csrToMatrix(g)
	dense, err := Synchronize(mls, Options{Solver: SolverDense})
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	return mls, dense
}

// TestHierarchicalSoundAndAdmissible forces the two-level solver on an
// instance the exact path could handle, then checks the certificate
// against the dense optimum: λ̂ must dominate the true A_max, the
// corrections must be admissible under the exact m~s at gradient λ̂, and
// the certificate must not be wildly loose on this topology. It also pins
// the gap between the hierarchical bracket and the optimum on this
// instance, λ̂ / A_max and λ_B / A_max, to 1e-12 relative, so a change to
// either side shows; closing the gap moves the pins on purpose.
func TestHierarchicalSoundAndAdmissible(t *testing.T) {
	// centered -> {λ̂ / A_max, λ_B / A_max}
	wantGap := map[bool][2]float64{
		false: {1.691258803736301, 0.8456294018681505},
		true:  {0.99999999999999756, 0.8456294018681505},
	}
	for _, centered := range []bool{false, true} {
		mls, dense := hierInstance(t, 17, 10, 32) // n = 320
		hier, err := Synchronize(mls, Options{
			Solver:      SolverHierarchical,
			ClusterSize: 32,
			Centered:    centered,
		})
		if err != nil {
			t.Fatalf("hierarchical (centered=%v): %v", centered, err)
		}
		lam := hier.Precision
		opt := dense.Precision
		if lam < opt-1e-9 {
			t.Fatalf("centered=%v: certificate %v below optimum %v", centered, lam, opt)
		}
		// Loose looseness bound: λ̂ composes intra-cluster closures whose
		// own max mean cycles can exceed the global A_max, so 3x does not
		// hold in general — but an order-of-magnitude blowup on a benign
		// ring of cliques would mean the certificate logic regressed.
		if lam > 10*opt {
			t.Fatalf("centered=%v: certificate %v more than 10x optimum %v", centered, lam, opt)
		}
		gap := [2]float64{lam / opt, hier.ComponentLowerBound[0] / opt}
		for i, name := range []string{"λ̂ / A_max", "λ_B / A_max"} {
			if want := wantGap[centered][i]; math.Abs(gap[i]-want) > 1e-12*want {
				t.Errorf("centered=%v: %s = %.17g, want %.17g", centered, name, gap[i], want)
			}
		}
		n := len(mls)
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if p == q || math.IsInf(dense.MS[p][q], 1) {
					continue
				}
				if b := dense.MS[p][q] + hier.Corrections[q] - hier.Corrections[p]; b > lam+1e-6 {
					t.Fatalf("centered=%v pair (%d,%d): gradient %v exceeds certificate %v",
						centered, p, q, b, lam)
				}
			}
		}
		if !centered && hier.Corrections[0] != 0 {
			t.Fatalf("root correction %v, want 0", hier.Corrections[0])
		}
	}
}

// TestHierarchicalParallelBitIdentical: the hierarchical solver obeys the
// repo-wide contract that parallelism never changes bits.
func TestHierarchicalParallelBitIdentical(t *testing.T) {
	mls, _ := hierInstance(t, 29, 8, 24) // n = 192
	opts := Options{Solver: SolverHierarchical, ClusterSize: 24}
	serialOpts := opts
	serialOpts.Parallelism = 1
	serial, err := Synchronize(mls, serialOpts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parOpts := opts
	parOpts.Parallelism = 8
	par, err := Synchronize(mls, parOpts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	compareResultsBitIdentical(t, "parallelism", serial, par)
}

// TestHierarchicalMultiComponent: disconnected blocks each take the
// hierarchical path independently; global precision is +Inf while every
// per-component certificate stays finite and sound.
func TestHierarchicalMultiComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	blockA := sim.WeightedCSR(rng, 96, sim.RingOfCliques(6, 16), 0.01, 1)
	blockB := sim.WeightedCSR(rng, 80, sim.RingOfCliques(5, 16), 0.01, 1)
	na, nb := blockA.N(), blockB.N()
	n := na + nb
	mls := graph.NewMatrix(n, graph.Inf)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for u := 0; u < na; u++ {
		cols, wgts := blockA.Row(u)
		for e := range cols {
			mls[u][cols[e]] = wgts[e]
		}
	}
	for u := 0; u < nb; u++ {
		cols, wgts := blockB.Row(u)
		for e := range cols {
			mls[na+u][na+cols[e]] = wgts[e]
		}
	}
	dense, err := Synchronize(mls, Options{Solver: SolverDense})
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	hier, err := Synchronize(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 16,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("hierarchical: %v", err)
	}
	// At Parallelism 4 the two components run on different outer lanes,
	// so on different scratch kits; the bits must be the serial ones.
	serial, err := Synchronize(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 16,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("hierarchical serial: %v", err)
	}
	compareResultsBitIdentical(t, "outer lanes", serial, hier)
	if !math.IsInf(hier.Precision, 1) {
		t.Fatalf("global precision %v, want +Inf across components", hier.Precision)
	}
	if len(hier.Components) != 2 {
		t.Fatalf("%d components, want 2", len(hier.Components))
	}
	for ci := range hier.Components {
		cp, dp := hier.ComponentPrecision[ci], dense.ComponentPrecision[ci]
		if math.IsInf(cp, 1) || math.IsNaN(cp) {
			t.Fatalf("component %d precision %v", ci, cp)
		}
		if cp < dp-1e-9 {
			t.Fatalf("component %d: certificate %v below optimum %v", ci, cp, dp)
		}
	}
}

// TestHierarchicalQualityGauges: the certified gauges published for a
// hierarchical run must bracket the dense optimum — the published
// "optimal" is the contracted-graph lower bound λ_B ≤ A_max, the
// published "achieved" is λ̂ ≥ A_max — the per-cluster histogram must
// have seen one sample per cluster, and AssessQuality must report the
// same bracket, with a ratio above 1.
func TestHierarchicalQualityGauges(t *testing.T) {
	mls, dense := hierInstance(t, 61, 9, 28) // n = 252
	s := NewSynchronizer()
	defer s.Close()
	label := "hier-gauges"
	res, err := s.Sync(mls, Options{
		Solver:       SolverHierarchical,
		ClusterSize:  28,
		Quality:      true,
		QualityLabel: label,
	})
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	achieved := obs.Default.Gauge(obs.Labeled("quality.precision.achieved", "session", label)).Value()
	optimal := obs.Default.Gauge(obs.Labeled("quality.precision.optimal", "session", label)).Value()
	if achieved != res.Precision {
		t.Fatalf("achieved gauge %v, want %v", achieved, res.Precision)
	}
	if optimal > dense.Precision+1e-9 {
		t.Fatalf("optimal gauge %v exceeds true optimum %v", optimal, dense.Precision)
	}
	if optimal <= 0 {
		t.Fatalf("optimal gauge %v, want positive lower bound", optimal)
	}
	if achieved < optimal {
		t.Fatalf("achieved %v below optimal %v", achieved, optimal)
	}
	hist := obs.Default.Histogram(obs.Labeled("quality.precision.cluster", "session", label), obs.DefTimeBuckets)
	if hist.Snapshot().Count == 0 {
		t.Fatal("per-cluster precision histogram empty")
	}
	rep := AssessQuality(res)
	if rep.Achieved != achieved || rep.Optimal != optimal {
		t.Errorf("AssessQuality bracket [%v, %v], gauges [%v, %v]", rep.Optimal, rep.Achieved, optimal, achieved)
	}
	if rep.Ratio <= 1 {
		t.Errorf("AssessQuality ratio %v, want > 1 on a hierarchical bracket", rep.Ratio)
	}
}

// TestHierarchicalDeterminism pins the hierarchical solver bit for bit on
// one forced-hierarchical instance of three sim catalogue families: per
// family, a SHA-256 over the Precision, ComponentPrecision,
// Corrections and ComponentLowerBound (λ_B) of every solve across two
// ClusterSizes, Centered off and on, and Parallelism 1 and 2. The
// random-geometric digest was generated by the solver that ran Karp on
// every cluster; skipping a cluster's Karp run must not move a single
// bit. The other two were regenerated, with the solver unchanged, when
// their inputs moved to the catalogue: the ring of cliques took the
// node-0 bridge rule and per-pair weight order, and the bounded-degree
// instance became a chord ring of expected degree 4. The ring of cliques
// draws as many weights as before, so the geometric input is unchanged.
func TestHierarchicalDeterminism(t *testing.T) {
	want := map[string]string{
		"ring-of-cliques":  "7ee2f00e213689ae6f82745d74e08158fd94bed14410dba4139ed55fa08b40a7",
		"random-geometric": "81f35c6bab4619f48351f23dbcb8fbb5eeee380317a8b800b5ca9cce8461907b",
		"bounded-degree":   "443b15637dc2480cb4baf40162be7e53789f5d342d3d61c142a417d010bbffc6",
	}
	rng := rand.New(rand.NewSource(19))
	families := []struct {
		name string
		g    *graph.CSR
	}{
		{"ring-of-cliques", sim.WeightedCSR(rng, 240, sim.RingOfCliques(12, 20), 0.01, 1)},
		{"random-geometric", sim.WeightedCSR(rng, 300, sim.RandomGeometric(rng, 300, 0.12, 8), 0.01, 1)},
		{"bounded-degree", sim.WeightedCSR(rng, 300, sim.ChordRing(rng, 300, 300), 0.01, 1)},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			s := NewSynchronizer()
			defer s.Close()
			h := sha256.New()
			karpRuns := 0
			bits := func(xs ...float64) {
				var b [8]byte
				for _, x := range xs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
			for _, cs := range []int{24, 48} {
				for _, centered := range []bool{false, true} {
					for _, par := range []int{1, 2} {
						res, err := s.SyncCSR(fam.g, Options{
							Solver: SolverHierarchical, ClusterSize: cs,
							Centered: centered, Parallelism: par,
						})
						if err != nil {
							t.Fatalf("cs=%d centered=%v par=%d: %v", cs, centered, par, err)
						}
						bits(res.Precision)
						bits(res.ComponentPrecision...)
						bits(res.Corrections...)
						bits(res.ComponentLowerBound...)
						for _, r := range s.clusterKarp {
							karpRuns += r
						}
					}
				}
			}
			// The inputs must exercise both sides of the A_max check: the
			// ring of cliques certifies every cluster, the chord ring
			// sends some clusters to Karp.
			switch fam.name {
			case "ring-of-cliques":
				if karpRuns != 0 {
					t.Errorf("%d cluster Karp runs, want 0", karpRuns)
				}
			case "bounded-degree":
				if karpRuns == 0 {
					t.Error("no cluster fell back to Karp")
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[fam.name] {
				t.Errorf("digest = %s, want %s", got, want[fam.name])
			}
		})
	}
}

// TestHierarchicalSkipsClusterKarp: on the 2112-node ring of cliques of
// the SparseSystem/n=2112 benchmark case (the ring clockbench's sparse-2k
// solves, with other delays) SynchronizeSystem escalates to the
// hierarchical solver, λ_B dominates every cluster's maximum mean cycle,
// and the certificate proves it for every cluster, so no cluster runs
// Karp.
func TestHierarchicalSkipsClusterKarp(t *testing.T) {
	const cliques, size = 66, 32
	n := cliques * size
	a, err := delay.SymmetricBounds(0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = rng.Float64()
	}
	tab := trace.NewTable(n, false)
	var links []Link
	for _, e := range sim.RingOfCliques(cliques, size) {
		links = append(links, Link{P: model.ProcID(e.P), Q: model.ProcID(e.Q), A: a})
		for k := 0; k < 4; k++ {
			from, to := e.P, e.Q
			if k%2 == 1 {
				from, to = e.Q, e.P
			}
			send := 1 + rng.Float64()
			recv := send + 0.05 + 0.15*rng.Float64()
			if err := tab.Add(trace.Sample{From: model.ProcID(from), To: model.ProcID(to),
				SendClock: send - starts[from], RecvClock: recv - starts[to]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := NewSynchronizer()
	defer s.Close()
	res, err := s.SyncSystem(n, links, tab, DefaultMLSOptions(), Options{})
	if err != nil {
		t.Fatalf("SyncSystem: %v", err)
	}
	if len(res.Components) != 1 || res.CriticalCycle != nil {
		t.Fatalf("%d components, critical cycle %v: want one component solved hierarchically", len(res.Components), res.CriticalCycle)
	}
	if got := s.clusterKarp[0]; got != 0 {
		t.Errorf("%d clusters ran Karp, want 0", got)
	}
}

// TestHierarchicalWarmAllocs: once warm, a hierarchical solve keeps its
// closures, boundary graph, layout and Bellman-Ford scratch in the
// Synchronizer, so it allocates a small constant that does not grow with
// the instance: the same object count on a 240-node and a 2112-node ring
// of cliques, and at most 16 objects and 4 KiB per solve.
func TestHierarchicalWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	counts := map[string]float64{}
	for _, tc := range []struct {
		name                   string
		cliques, size, cluster int
	}{
		{"12x20", 12, 20, 24},
		{"66x32", 66, 32, 0},
	} {
		g := sim.WeightedCSR(rand.New(rand.NewSource(7)), tc.cliques*tc.size, sim.RingOfCliques(tc.cliques, tc.size), 0.01, 1)
		s := NewSynchronizer()
		opts := Options{Solver: SolverHierarchical, ClusterSize: tc.cluster, Parallelism: 1}
		solve := func() {
			if _, err := s.SyncCSR(g, opts); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for warm := 0; warm < 3; warm++ {
			solve()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		objs := testing.AllocsPerRun(runs, solve)
		s.Close()
		t.Logf("%s: %v objects, %d B per solve", tc.name, objs, bytes)
		if objs > 16 || bytes > 4<<10 {
			t.Errorf("%s: warm solve allocates %v objects and %d B, want at most 16 and 4096", tc.name, objs, bytes)
		}
		counts[tc.name] = objs
	}
	if counts["12x20"] != counts["66x32"] {
		t.Errorf("object counts differ across ring sizes: %v", counts)
	}
}
