package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync/internal/baseline"
	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// T1TwoProcBounds reproduces the two-processor bounds model (Theorem 4.6 +
// Lemma 6.2): reported precision equals rho-bar of the corrections, never
// exceeds the classic (U-L)/2 limit, and tightens as more messages sharpen
// the observed extremes.
func T1TwoProcBounds(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Two-processor bounds model",
		Claim:   "Thm 4.6 + Lemma 6.2: precision = A_max = rho-bar <= (U-L)/2; favorable instances beat the worst case",
		Columns: []string{"u", "k", "A_max", "rho-bar", "rho", "(U-L)/2", "cert"},
	}
	rng := rand.New(rand.NewSource(seed))
	const lb = 0.05
	for _, u := range []float64{0.002, 0.01, 0.05, 0.2} {
		for _, k := range []int{1, 4, 16} {
			ub := lb + u
			b, err := build(instance(2, 0, ring, link(symBounds(lb, ub), uniform(lb, ub)), k), rng)
			if err != nil {
				return nil, fmt.Errorf("T1(u=%v,k=%d): %w", u, k, err)
			}
			r, err := simulate(b, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("T1(u=%v,k=%d): %w", u, k, err)
			}
			cert, err := verify.CheckOptimality(r.exec, r.links, core.DefaultMLSOptions(), r.res, 100, rng.Int63())
			if err != nil {
				return nil, err
			}
			rho, err := core.Rho(r.starts, r.res.Corrections)
			if err != nil {
				return nil, err
			}
			ok := cert.Ok(1e-9) == nil && r.res.Precision <= u/2+1e-12
			t.AddRow(f(u), fi(k), f(r.res.Precision), f(cert.RhoBarOptimal), f(rho), f(u/2), fb(ok))
		}
	}
	t.Notes = append(t.Notes,
		"A_max < (U-L)/2 whenever the observed extremes beat the worst case; more messages (larger k) tighten it",
	)
	return t, nil
}

// T2Optimality validates instance optimality (Section 3): over random
// instances and hundreds of random alternative correction vectors, none
// achieves a guaranteed precision below A_max.
func T2Optimality(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "Instance optimality",
		Claim:   "Section 3 / Thm 4.4+4.6: no correction vector has rho-bar below A_max on any instance",
		Columns: []string{"topology", "n", "trial", "A_max", "best alternative", "verdict"},
	}
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name string
		n    int
		topo scenario.Topology
	}{
		{"ring", 5, ring},
		{"line", 4, scenario.Topology{Kind: "line"}},
		{"complete", 4, complete},
		{"grid2x3", 6, scenario.Topology{Kind: "grid", W: 2, H: 3}},
		{"random", 8, scenario.Topology{Kind: "random", P: 0.3}},
	}
	for _, c := range cases {
		for trial := 0; trial < 3; trial++ {
			// With the starts drawn from rng, the random topology is
			// the first draw of seed+1's stream.
			b, err := build(instance(c.n, seed+1, c.topo, link(symBounds(0.05, 0.3), uniform(0.05, 0.3)), 1+trial), rng)
			if err != nil {
				return nil, fmt.Errorf("T2(%s#%d): %w", c.name, trial, err)
			}
			r, err := simulate(b, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("T2(%s#%d): %w", c.name, trial, err)
			}
			cert, err := verify.CheckOptimality(r.exec, r.links, core.DefaultMLSOptions(), r.res, 500, rng.Int63())
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, fi(c.n), fi(trial), f(cert.AMaxTrue), f(cert.BestAlternative), fb(cert.Ok(1e-9) == nil))
		}
	}
	return t, nil
}

// T3Baselines compares the optimal algorithm against the baselines on the
// guaranteed-precision metric (rho-bar) and the realized discrepancy.
func T3Baselines(seed int64) (*Table, error) {
	t := &Table{
		ID:    "T3",
		Title: "Optimal vs baselines across topologies",
		Claim: "Sections 1, 7: the optimal algorithm dominates practical baselines in guaranteed precision on every instance",
		Columns: []string{"topology", "n", "A_max(opt)", "rho(opt)",
			"rhoBar(mid)", "rho(mid)", "rhoBar(hmm)", "rho(hmm)", "rhoBar(ll)", "rho(ll)", "rho(raw)"},
	}
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name string
		n    int
		topo scenario.Topology
	}{
		{"line", 8, scenario.Topology{Kind: "line"}},
		{"ring", 8, ring},
		{"star", 8, scenario.Topology{Kind: "star"}},
		{"grid4x2", 8, scenario.Topology{Kind: "grid", W: 4, H: 2}},
		{"complete", 8, complete},
		{"complete", 16, complete},
		{"ring", 32, ring},
	}
	d := scenario.SamplerSpec{Kind: "uniform", Lo: 0.05, Hi: 0.35}
	independent := scenario.DelaySpec{Kind: "independent", PQ: &d, QP: &d}
	for _, c := range cases {
		b, err := build(instance(c.n, 0, c.topo, link(symBounds(0.05, 0.35), independent), 4), rng)
		if err != nil {
			return nil, fmt.Errorf("T3(%s/%d): %w", c.name, c.n, err)
		}
		r, err := simulate(b, core.Options{Centered: true})
		if err != nil {
			return nil, fmt.Errorf("T3(%s/%d): %w", c.name, c.n, err)
		}
		rhoOpt, err := core.Rho(r.starts, r.res.Corrections)
		if err != nil {
			return nil, err
		}
		row := []string{c.name, fi(c.n), f(r.res.Precision), f(rhoOpt)}

		for _, b := range []baseline.Baseline{baseline.MidpointTree{}, baseline.HMM{Links: r.links}, baseline.LLAverage{}} {
			x, err := b.Corrections(r.exec, 0)
			if err != nil {
				row = append(row, "-", "-")
				continue
			}
			rb, err := r.rhoBarOf(x)
			if err != nil {
				return nil, err
			}
			rho, err := core.Rho(r.starts, x)
			if err != nil {
				return nil, err
			}
			row = append(row, f(rb), f(rho))
		}
		raw, err := core.Rho(r.starts, make([]float64, c.n))
		if err != nil {
			return nil, err
		}
		row = append(row, f(raw))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"rhoBar is the guaranteed precision of each algorithm's corrections on the instance; A_max(opt) is the minimum attainable",
		"ll-average requires complete bidirectional traffic: '-' elsewhere",
	)
	return t, nil
}

// T4Mixture exercises the headline flexibility claim: links with different
// assumptions — including several on the same link — synchronize optimally,
// and using the full mixture strictly beats ignoring the exotic assumptions.
func T4Mixture(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T4",
		Title:   "Mixed delay assumptions",
		Claim:   "Sections 1, 5.4, 6: mixtures of bounds/bias/lower-only links (even on the same link) are handled and exploited",
		Columns: []string{"variant", "A_max", "rho", "cert"},
	}
	rng := rand.New(rand.NewSource(seed))
	const n = 16
	// A link's kind is its lower end's id mod 4: a well-behaved bounded
	// link, correlated directions with an unknown absolute delay, a heavy
	// tail where only a lower bound is sound, and a link where both a
	// (loose) bound and a bias hold.
	delays := [4]scenario.DelaySpec{
		uniform(0.1, 0.2),
		{Kind: "biasWindow", Base: 0.15, Width: 0.04},
		symmetric(scenario.SamplerSpec{Kind: "shiftedExp", Min: 0.08, Mean: 0.1}),
		{Kind: "biasWindow", Base: 0.12, Width: 0.03},
	}
	lowerOnly := scenario.AssumptionSpec{Kind: "lowerOnly", LBPQ: 0.08, LBQP: 0.08}
	variants := []struct {
		name   string
		assume [4]scenario.AssumptionSpec
		check  bool
	}{
		{"full mixture", [4]scenario.AssumptionSpec{symBounds(0.1, 0.2), bias(0.04), lowerOnly,
			{Kind: "and", Parts: []scenario.AssumptionSpec{symBounds(0.1, 0.2), bias(0.03)}}}, true},
		// A bounds-only practitioner cannot express bias: those links
		// degrade to the no-bounds assumption.
		{"bounds-only (bias ignored)", [4]scenario.AssumptionSpec{symBounds(0.1, 0.2), noBounds, lowerOnly, noBounds}, false},
	}
	var fullAMax float64
	for i, v := range variants {
		// Same seed per variant: identical executions, different knowledge.
		s := instance(n, seed+100, ring, nil, 6)
		for _, e := range sim.Ring(n) {
			kind := min(e.P, e.Q) % 4
			s.Links = append(s.Links, scenario.LinkOverride{P: e.P, Q: e.Q,
				LinkSpec: scenario.LinkSpec{Assumption: v.assume[kind], Delays: delays[kind]}})
		}
		b, err := build(s, nil)
		if err != nil {
			return nil, fmt.Errorf("T4(%s): %w", v.name, err)
		}
		r, err := simulate(b, core.Options{Centered: true})
		if err != nil {
			return nil, fmt.Errorf("T4(%s): %w", v.name, err)
		}
		rho, err := core.Rho(r.starts, r.res.Corrections)
		if err != nil {
			return nil, err
		}
		certCell := "-"
		if v.check {
			cert, err := verify.CheckOptimality(r.exec, r.links, core.DefaultMLSOptions(), r.res, 200, rng.Int63())
			if err != nil {
				return nil, err
			}
			certCell = fb(cert.Ok(1e-9) == nil)
		}
		if i == 0 {
			fullAMax = r.res.Precision
		}
		t.AddRow(v.name, f(r.res.Precision), f(rho), certCell)
		if i == 1 && !(r.res.Precision >= fullAMax-1e-12) {
			t.AddRow("ANOMALY", "bounds-only beat full mixture", "", "")
		}
	}
	t.Notes = append(t.Notes, "identical executions in both rows; only the assumption knowledge differs")
	return t, nil
}

// T5Decomposition validates Theorem 5.6 numerically: the maximal local
// shift under an intersection equals the minimum of the individual shifts,
// and at the system level the combined assumption is at least as tight as
// either part.
func T5Decomposition(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T5",
		Title:   "Decomposition theorem",
		Claim:   "Thm 5.6: mls under A' ∩ A'' = min(mls', mls''); combining assumptions never hurts",
		Columns: []string{"check", "trials", "max abs error", "verdict"},
	}
	rng := rand.New(rand.NewSource(seed))

	// Pointwise: random stats, random assumption pairs.
	const trials = 2000
	maxErr := 0.0
	for i := 0; i < trials; i++ {
		lb := rng.Float64() * 0.2
		b1 := must(symBounds(lb, lb+0.1+rng.Float64()))
		b2 := must(bias(rng.Float64()))
		both, err := delay.NewIntersect(b1, b2)
		if err != nil {
			return nil, err
		}
		pq, qp := trace.NewDirStats(), trace.NewDirStats()
		for j := 0; j < 1+rng.Intn(4); j++ {
			pq.Add(lb + rng.Float64()*0.5)
			qp.Add(lb + rng.Float64()*0.5)
		}
		m1p, m1q := b1.MLS(pq, qp)
		m2p, m2q := b2.MLS(pq, qp)
		gp, gq := both.MLS(pq, qp)
		maxErr = math.Max(maxErr, math.Abs(gp-math.Min(m1p, m2p)))
		maxErr = math.Max(maxErr, math.Abs(gq-math.Min(m1q, m2q)))
	}
	t.AddRow("pointwise mls identity", fi(trials), f(maxErr), fb(maxErr == 0))

	// System level: precision under intersection <= min of individual.
	const sysTrials = 10
	worst := 0.0
	for i := 0; i < sysTrials; i++ {
		base := seed + int64(i)*17
		runWith := func(a scenario.AssumptionSpec) (float64, error) {
			b, err := build(instance(6, base, ring, link(a, scenario.DelaySpec{Kind: "biasWindow", Base: 0.2, Width: 0.05}), 3), nil)
			if err != nil {
				return 0, err
			}
			r, err := simulate(b, core.Options{})
			if err != nil {
				return 0, err
			}
			return r.res.Precision, nil
		}
		bounds, rtt := symBounds(0.0, 0.6), bias(0.05)
		pb, err := runWith(bounds)
		if err != nil {
			return nil, err
		}
		pi, err := runWith(rtt)
		if err != nil {
			return nil, err
		}
		pboth, err := runWith(scenario.AssumptionSpec{Kind: "and", Parts: []scenario.AssumptionSpec{bounds, rtt}})
		if err != nil {
			return nil, err
		}
		worst = math.Max(worst, pboth-math.Min(pb, pi))
	}
	t.AddRow("system precision(A'∩A'') <= min", fi(sysTrials), f(math.Max(worst, 0)), fb(worst <= 1e-9))
	return t, nil
}

// T6WorstCase builds the adversarial "sorted" instance on complete graphs
// (d(pi->pj) = U for i<j, L otherwise) whose optimal precision equals the
// classic Lundelius-Lynch worst-case bound u(1-1/n), and confirms random
// instances never exceed it.
func T6WorstCase(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T6",
		Title:   "Worst-case instances vs the Lundelius-Lynch bound",
		Claim:   "Instance optimality meets the LL'84 worst case: max over instances of A_max = u(1-1/n) on complete graphs",
		Columns: []string{"n", "A_max(sorted instance)", "u(1-1/n)", "match", "max A_max(random)", "within bound"},
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		L = 0.1
		U = 0.3
		u = U - L
	)
	for _, n := range []int{2, 3, 4, 5, 6, 8} {
		sorted, err := completeInstance(n, func(i, j int) float64 {
			if i < j {
				return U
			}
			return L
		})
		if err != nil {
			return nil, err
		}
		aSorted, err := amaxOf(sorted, L, U)
		if err != nil {
			return nil, err
		}
		bound := u * (1 - 1/float64(n))

		maxRand := 0.0
		for trial := 0; trial < 200; trial++ {
			inst, err := completeInstance(n, func(i, j int) float64 {
				switch rng.Intn(3) {
				case 0:
					return L
				case 1:
					return U
				default:
					return L + u*rng.Float64()
				}
			})
			if err != nil {
				return nil, err
			}
			a, err := amaxOf(inst, L, U)
			if err != nil {
				return nil, err
			}
			maxRand = math.Max(maxRand, a)
		}
		t.AddRow(fi(n), f(aSorted), f(bound),
			fb(math.Abs(aSorted-bound) < 1e-9),
			f(maxRand), fb(maxRand <= bound+1e-9))
	}
	return t, nil
}

// completeInstance builds an execution on the complete graph with one
// message per ordered pair and the given delay function.
func completeInstance(n int, d func(i, j int) float64) (*model.Execution, error) {
	starts := make([]float64, n) // skews are irrelevant to A_max; keep zero
	b := model.NewBuilder(starts)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if _, err := b.AddMessageDelay(model.ProcID(i), model.ProcID(j), 1, d(i, j)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// amaxOf synchronizes a complete-graph execution under symmetric [L,U]
// bounds and returns the reported precision.
func amaxOf(e *model.Execution, L, U float64) (float64, error) {
	n := e.N()
	links := linksOn(sim.Complete(n), must(symBounds(L, U)))
	tab, err := trace.Collect(e, false)
	if err != nil {
		return 0, err
	}
	res, err := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), core.Options{})
	if err != nil {
		return 0, err
	}
	return res.Precision, nil
}
