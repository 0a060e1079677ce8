package verify

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// scenario bundles a simulated execution with its assumption links.
type scenario struct {
	exec  *model.Execution
	links []core.Link
	tab   *trace.Table
	res   *core.Result
}

// mkScenario simulates a connected topology with symmetric uniform delays
// and bounds assumptions matching the sampler support, then synchronizes.
func mkScenario(t *testing.T, rng *rand.Rand, n int, pairs []sim.Pair, lo, hi float64, k int) *scenario {
	t.Helper()
	starts := sim.UniformStarts(rng, n, 5)
	net, err := sim.NewNetwork(starts, pairs, func(sim.Pair) sim.LinkDelays {
		return sim.Symmetric(sim.Uniform{Lo: lo, Hi: hi})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := sim.Run(net, sim.NewBurstFactory(k, 0.01, sim.SafeWarmup(starts)+1), sim.RunConfig{Seed: rng.Int63()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bounds, err := delay.SymmetricBounds(lo, hi)
	if err != nil {
		t.Fatalf("SymmetricBounds: %v", err)
	}
	links := make([]core.Link, 0, len(pairs))
	for _, e := range pairs {
		p, q := e.P, e.Q
		if p > q {
			p, q = q, p
		}
		links = append(links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: bounds})
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	res, err := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), core.Options{})
	if err != nil {
		t.Fatalf("SynchronizeSystem: %v", err)
	}
	return &scenario{exec: exec, links: links, tab: tab, res: res}
}

// TestOptimalityEndToEnd is the headline reproduction test: on random
// connected systems, the algorithm's reported precision equals the true
// A_max (Lemma 4.5), equals rho-bar of its corrections (Theorem 4.6), and
// no random alternative beats it (Section 3 optimality).
func TestOptimalityEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	topologies := []struct {
		name  string
		n     int
		pairs []sim.Pair
	}{
		{"pair", 2, sim.Ring(2)},
		{"ring5", 5, sim.Ring(5)},
		{"line4", 4, sim.Line(4)},
		{"star6", 6, sim.Star(6)},
		{"complete5", 5, sim.Complete(5)},
		{"grid2x3", 6, sim.Grid(2, 3)},
	}
	for _, tt := range topologies {
		t.Run(tt.name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				sc := mkScenario(t, rng, tt.n, tt.pairs, 0.1, 0.4, 1+trial)
				cert, err := CheckOptimality(sc.exec, sc.links, core.DefaultMLSOptions(), sc.res, 200, rng.Int63())
				if err != nil {
					t.Fatalf("trial %d: CheckOptimality: %v", trial, err)
				}
				if err := cert.Ok(1e-9); err != nil {
					t.Fatalf("trial %d: %v (cert %+v)", trial, err, cert)
				}
			}
		})
	}
}

// TestOptimalityWithMixedAssumptions repeats the optimality check with a
// heterogeneous assumption mix: bounds, bias windows and lower-only links.
func TestOptimalityWithMixedAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 6
	pairs := sim.Ring(n)
	starts := sim.UniformStarts(rng, n, 3)

	delays := func(e sim.Pair) sim.LinkDelays {
		switch e.P % 3 {
		case 0:
			return sim.Symmetric(sim.Uniform{Lo: 0.2, Hi: 0.5})
		case 1:
			return sim.BiasWindow{Base: 0.3, Width: 0.1}
		default:
			return sim.Symmetric(sim.ShiftedExp{Min: 0.1, Mean: 0.2})
		}
	}
	net, err := sim.NewNetwork(starts, pairs, delays)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := sim.Run(net, sim.NewBurstFactory(4, 0.02, sim.SafeWarmup(starts)+1), sim.RunConfig{Seed: 55})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var links []core.Link
	for _, e := range pairs {
		p, q := e.P, e.Q
		if p > q {
			p, q = q, p
		}
		var a delay.Assumption
		switch e.P % 3 {
		case 0:
			b, err := delay.SymmetricBounds(0.2, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			a = b
		case 1:
			bias, err := delay.NewRTTBias(0.1)
			if err != nil {
				t.Fatal(err)
			}
			a = bias
		default:
			lo, err := delay.LowerOnly(0.1, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			a = lo
		}
		links = append(links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: a})
	}

	if err := CheckAdmissible(exec, links, core.DefaultMLSOptions()); err != nil {
		t.Fatalf("CheckAdmissible: %v", err)
	}

	tab, err := trace.Collect(exec, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	res, err := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), core.Options{})
	if err != nil {
		t.Fatalf("SynchronizeSystem: %v", err)
	}
	cert, err := CheckOptimality(exec, links, core.DefaultMLSOptions(), res, 300, 99)
	if err != nil {
		t.Fatalf("CheckOptimality: %v", err)
	}
	if err := cert.Ok(1e-9); err != nil {
		t.Fatalf("%v (cert %+v)", err, cert)
	}
}

// TestAdversarialShift validates the Lemma 5.3 construction: the shifted
// execution is (a) equivalent, (b) still admissible, and (c) realizes a
// discrepancy under the optimal corrections approaching the guarantee.
func TestAdversarialShift(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := mkScenario(t, rng, 5, sim.Ring(5), 0.1, 0.5, 2)

	// Find the ordered pair (p,q) attaining rho-bar of the corrections.
	msTrue, err := TrueMS(sc.exec, sc.links, core.DefaultMLSOptions())
	if err != nil {
		t.Fatalf("TrueMS: %v", err)
	}
	starts := sc.exec.Starts()
	bestP, bestQ := -1, -1
	worst := math.Inf(-1)
	for p := 0; p < 5; p++ {
		for q := 0; q < 5; q++ {
			if p == q {
				continue
			}
			v := (starts[p] - sc.res.Corrections[p]) - (starts[q] - sc.res.Corrections[q]) + msTrue[p][q]
			if v > worst {
				worst, bestP, bestQ = v, p, q
			}
		}
	}

	const gamma = 0.999
	shifted, shifts, err := AdversarialShift(sc.exec, sc.links, core.DefaultMLSOptions(), model.ProcID(bestP), model.ProcID(bestQ), gamma)
	if err != nil {
		t.Fatalf("AdversarialShift: %v", err)
	}
	if !model.Equivalent(sc.exec, shifted) {
		t.Fatal("shifted execution is not equivalent")
	}
	if err := CheckAdmissible(shifted, sc.links, core.DefaultMLSOptions()); err != nil {
		t.Fatalf("shifted execution inadmissible: %v", err)
	}
	if got := shifts[bestQ] - shifts[bestP]; math.Abs(got-gamma*msTrue[bestP][bestQ]) > 1e-9 {
		t.Errorf("relative shift = %v, want %v", got, gamma*msTrue[bestP][bestQ])
	}

	// The realized discrepancy on the adversarial execution approaches the
	// guarantee; since views (hence corrections) are unchanged, it must
	// also stay within it.
	rho, err := core.Rho(shifted.Starts(), sc.res.Corrections)
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	rhoBar, err := RhoBar(starts, msTrue, sc.res.Corrections)
	if err != nil {
		t.Fatalf("RhoBar: %v", err)
	}
	if rho > rhoBar+1e-9 {
		t.Errorf("adversarial rho %v exceeds guarantee %v", rho, rhoBar)
	}
	if rho < rhoBar-0.01*(1+math.Abs(rhoBar)) {
		t.Errorf("adversarial rho %v does not approach guarantee %v", rho, rhoBar)
	}
}

func TestAdversarialShiftErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := mkScenario(t, rng, 3, sim.Ring(3), 0.1, 0.2, 1)
	if _, _, err := AdversarialShift(sc.exec, sc.links, core.DefaultMLSOptions(), 0, 1, 1.5); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if _, _, err := AdversarialShift(sc.exec, sc.links, core.DefaultMLSOptions(), 0, 9, 0.5); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestRhoBarValidation(t *testing.T) {
	if _, err := RhoBar([]float64{0, 1}, [][]float64{{0, 1}, {1, 0}}, []float64{0}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	v, err := RhoBar([]float64{3}, [][]float64{{0}}, []float64{1})
	if err != nil || v != 0 {
		t.Errorf("singleton RhoBar = %v, %v; want 0, nil", v, err)
	}
}

func TestCertificateOkDetectsViolations(t *testing.T) {
	good := &Certificate{AMaxEstimated: 1, AMaxTrue: 1, RhoBarOptimal: 1, Rho: 0.5, BestAlternative: 1.2, Alternatives: 10}
	if err := good.Ok(1e-9); err != nil {
		t.Errorf("good certificate rejected: %v", err)
	}
	cases := []struct {
		name string
		c    Certificate
		want string
	}{
		{"lemma45", Certificate{AMaxEstimated: 1, AMaxTrue: 2, RhoBarOptimal: 2, Rho: 0}, "Lemma 4.5"},
		{"theorem46", Certificate{AMaxEstimated: 1, AMaxTrue: 1, RhoBarOptimal: 2, Rho: 0}, "Theorem 4.6"},
		{"rho", Certificate{AMaxEstimated: 1, AMaxTrue: 1, RhoBarOptimal: 1, Rho: 3}, "exceeds"},
		{"optimality", Certificate{AMaxEstimated: 1, AMaxTrue: 1, RhoBarOptimal: 1, Rho: 0.5, BestAlternative: 0.2, Alternatives: 5}, "optimality"},
		{"finiteness", Certificate{AMaxEstimated: math.Inf(1), AMaxTrue: 1}, "finiteness"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Ok(1e-9)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Ok = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

func TestCheckAdmissibleCatchesViolation(t *testing.T) {
	// Build an execution whose delays violate the declared bounds.
	b := model.NewBuilder([]float64{0, 0})
	if _, err := b.AddMessageDelay(0, 1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMessageDelay(1, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	exec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tight, err := delay.SymmetricBounds(0, 1) // delays are 5: violated
	if err != nil {
		t.Fatal(err)
	}
	links := []core.Link{{P: 0, Q: 1, A: tight}}
	if err := CheckAdmissible(exec, links, core.DefaultMLSOptions()); err == nil {
		t.Error("violation not detected")
	}
}

// TestRhoBarLowerBoundedByRho: on the observed execution itself, realized
// discrepancy never exceeds rho-bar for any correction vector.
func TestRhoBarLowerBoundedByRho(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := mkScenario(t, rng, 4, sim.Complete(4), 0.05, 0.3, 2)
	msTrue, err := TrueMS(sc.exec, sc.links, core.DefaultMLSOptions())
	if err != nil {
		t.Fatalf("TrueMS: %v", err)
	}
	starts := sc.exec.Starts()
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		rho, err := core.Rho(starts, x)
		if err != nil {
			t.Fatal(err)
		}
		rhoBar, err := RhoBar(starts, msTrue, x)
		if err != nil {
			t.Fatal(err)
		}
		if rho > rhoBar+1e-9 {
			t.Fatalf("trial %d: rho %v > rho-bar %v", trial, rho, rhoBar)
		}
	}
}

// TestExactCertificateRejectsMismatchedResult: a Result from a system of a
// different size, or one whose critical cycle leaves [0, n), fails closed
// with an error instead of indexing out of range.
func TestExactCertificateRejectsMismatchedResult(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	sc := mkScenario(t, rng, 4, sim.Complete(4), 0.05, 0.25, 1)
	mopts := core.DefaultMLSOptions()

	short := *sc.res
	short.Corrections = sc.res.Corrections[:3]
	if _, err := ExactCertificate(sc.exec, sc.links, mopts, &short); err == nil {
		t.Error("result with 3 corrections accepted for a 4-processor execution")
	}
	for _, bad := range [][]int{{0, 4, 0}, {-1, 1, -1}} {
		r := *sc.res
		r.CriticalCycle = bad
		if _, err := ExactCertificate(sc.exec, sc.links, mopts, &r); err == nil {
			t.Errorf("critical cycle %v accepted", bad)
		}
	}
}
