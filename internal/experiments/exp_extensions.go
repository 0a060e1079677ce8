package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/dist"
	"clocksync/internal/drift"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/prob"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// D1Drift quantifies the drift extension (paper footnote 1 + §7): with
// bounded-drift clocks and soundly inflated assumptions, the corrected
// clocks stay inside the analytic envelope, and the required
// resynchronization period follows directly.
func D1Drift(seed int64) (*Table, error) {
	t := &Table{
		ID:      "D1",
		Title:   "Bounded clock drift: precision and resync period",
		Claim:   "Footnote 1 (after Kopetz-Ochsenreiter): periodic resynchronization absorbs bounded drift; inflated assumptions keep the guarantee sound",
		Columns: []string{"rho", "precision", "disc@horizon", "bound@horizon", "sound", "resync for 0.5s"},
	}
	const (
		n      = 6
		lb, ub = 0.05, 0.2
	)
	for _, rho := range []float64{0, 1e-5, 1e-4, 1e-3, 5e-3} {
		rng := rand.New(rand.NewSource(seed + int64(rho*1e7)))
		starts := sim.UniformStarts(rng, n, 1)
		rates := make(drift.Rates, n)
		for p := range rates {
			rates[p] = 1 - rho + 2*rho*rng.Float64()
		}
		s := scenario.Scenario{Processors: n, Starts: starts, Topology: ring, DefaultLink: link(symBounds(lb, ub), uniform(lb, ub)),
			Protocol: scenario.ProtocolSpec{Kind: "burst", K: 3, Spacing: 0.05, Warmup: sim.SafeWarmup(starts) + 0.5}}
		b, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("D1(rho=%v): %w", rho, err)
		}
		b.RunCfg.Seed = seed
		exec, err := sim.Run(b.Net, b.Factory, b.RunCfg)
		if err != nil {
			return nil, err
		}
		horizon, err := drift.MaxClock(exec)
		if err != nil {
			return nil, err
		}
		for i := range b.Links {
			if b.Links[i].A, err = drift.Inflate(b.Links[i].A, rho, horizon); err != nil {
				return nil, err
			}
		}
		tab, err := drift.CollectDrifted(exec, rates)
		if err != nil {
			return nil, err
		}
		res, err := core.SynchronizeSystem(n, b.Links, tab, core.MLSOptions{}, core.Options{Centered: true})
		if err != nil {
			return nil, err
		}
		tEval := maxOf(starts) + horizon
		disc, err := drift.Discrepancy(starts, rates, res.Corrections, tEval)
		if err != nil {
			return nil, err
		}
		bound := drift.Bound(res.Precision, rho, horizon, tEval)
		t.AddRow(f(rho), f(res.Precision), f(disc), f(bound),
			fb(disc <= bound+1e-9), f(drift.ResyncPeriod(0.5, bound, rho)))
	}
	t.Notes = append(t.Notes,
		"precision grows with rho because the inflated bounds are wider; the resync period for a fixed target shrinks accordingly",
	)
	return t, nil
}

// P1Probabilistic quantifies the probabilistic extension (§7): quantile-
// derived bounds trade precision for confidence, and observed violation
// rates stay within the epsilon budget.
func P1Probabilistic(seed int64) (*Table, error) {
	t := &Table{
		ID:      "P1",
		Title:   "Probabilistic delays: confidence vs precision",
		Claim:   "§7 open question: with known delay distributions, quantile bounds give optimal corrections valid with probability 1-epsilon",
		Columns: []string{"epsilon", "derived ub", "mean precision", "violations", "budget+3sigma", "within budget", "misses"},
	}
	distro := prob.LogNormal{Mu: -2.3, Sigma: 0.5} // median 100 ms
	const (
		k    = 8
		runs = 300
	)
	for _, eps := range []float64{0.5, 0.1, 0.01, 0.0001} {
		bounds, err := prob.ConfidenceBounds(distro, distro, k, eps)
		if err != nil {
			return nil, fmt.Errorf("P1(eps=%v): %w", eps, err)
		}
		rng := rand.New(rand.NewSource(seed + int64(eps*1e6)))
		sampler := prob.Sampler{D: distro}
		violated, misses, precSum, admissible := 0, 0, 0.0, 0
		for run := 0; run < runs; run++ {
			skew := rng.Float64()*2 - 1
			starts := []float64{0, skew}
			b := model.NewBuilder(starts)
			ok := true
			for i := 0; i < k; i++ {
				tm := 2.0 + float64(i)
				d01 := sampler.Sample(rng)
				d10 := sampler.Sample(rng)
				if !bounds.PQ.Contains(d01) || !bounds.QP.Contains(d10) {
					ok = false
				}
				if _, err := b.AddMessageDelay(0, 1, tm, d01); err != nil {
					return nil, err
				}
				if _, err := b.AddMessageDelay(1, 0, tm, d10); err != nil {
					return nil, err
				}
			}
			if !ok {
				violated++
				continue
			}
			exec, err := b.Build()
			if err != nil {
				return nil, err
			}
			tab, err := trace.Collect(exec, false)
			if err != nil {
				return nil, err
			}
			res, err := core.SynchronizeSystem(2, []core.Link{{P: 0, Q: 1, A: bounds}}, tab,
				core.DefaultMLSOptions(), core.Options{Centered: true})
			if err != nil {
				return nil, err
			}
			admissible++
			precSum += res.Precision
			rho, err := core.Rho(starts, res.Corrections)
			if err != nil {
				return nil, err
			}
			if rho > res.Precision+1e-9 {
				misses++
			}
		}
		rate := float64(violated) / runs
		budget := eps + 3*math.Sqrt(eps*(1-eps)/runs)
		meanPrec := math.NaN()
		if admissible > 0 {
			meanPrec = precSum / float64(admissible)
		}
		t.AddRow(f(eps), f(bounds.PQ.UB), f(meanPrec),
			fmt.Sprintf("%d/%d", violated, runs), f(budget),
			fb(rate <= budget), fi(misses))
	}
	t.Notes = append(t.Notes,
		"smaller epsilon widens the quantile bounds (heavier upper quantiles of the log-normal), costing precision",
		"misses counts admissible runs whose realized error exceeded the reported precision: always 0",
	)
	return t, nil
}

// X1Distributed measures the Section 7 leader protocol: agreement with the
// centralized pipeline and message overhead, per topology.
func X1Distributed(seed int64) (*Table, error) {
	t := &Table{
		ID:      "X1",
		Title:   "Distributed leader protocol",
		Claim:   "§7: the sketched distributed realization reproduces the centralized optimum; overhead is the report/result floods",
		Columns: []string{"topology", "n", "precision", "agrees", "rho<=prec", "probe msgs", "total msgs"},
	}
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name string
		n    int
		topo scenario.Topology
	}{
		{"ring", 8, ring},
		{"star", 8, scenario.Topology{Kind: "star"}},
		{"grid3x3", 9, scenario.Topology{Kind: "grid", W: 3, H: 3}},
		{"complete", 6, complete},
	}
	const (
		lb, ub = 0.05, 0.2
		k      = 3
	)
	for _, c := range cases {
		// dist.Run drives the protocol from cfg; s's protocol section is unused.
		s := instance(c.n, 0, c.topo, link(symBounds(lb, ub), uniform(lb, ub)), k)
		s.StartSpread = 1
		b, err := build(s, rng)
		if err != nil {
			return nil, fmt.Errorf("X1(%s): %w", c.name, err)
		}
		cfg := dist.Config{
			Leader: 0, Links: b.Links, Probes: k, Spacing: 0.01,
			Warmup: sim.SafeWarmup(b.Starts) + 0.5, Window: 5,
		}
		out, _, err := dist.Run(b.Net, cfg, b.RunCfg)
		if err != nil {
			return nil, fmt.Errorf("X1(%s): %w", c.name, err)
		}
		central, err := core.SynchronizeSystem(c.n, b.Links, out.LeaderTable, core.DefaultMLSOptions(), core.Options{Root: 0})
		if err != nil {
			return nil, err
		}
		agrees := math.Abs(central.Precision-out.Precision) < 1e-12
		for p := range out.Corrections {
			if math.Abs(out.Corrections[p]-central.Corrections[p]) > 1e-12 {
				agrees = false
			}
		}
		rho, err := core.Rho(b.Starts, out.Corrections)
		if err != nil {
			return nil, err
		}
		probes := 2 * k * len(b.Links)
		t.AddRow(c.name, fi(c.n), f(out.Precision), fb(agrees),
			fb(rho <= out.Precision+1e-9), fi(probes), fi(out.Delivered))
	}
	t.Notes = append(t.Notes,
		"per the paper, optimality is relative to the probe traffic; the flood messages' own timing information goes unused",
	)
	return t, nil
}

// A1CorrectionStyle is the ablation for the Centered option: both styles
// share the optimal guaranteed precision, but centered corrections
// realize smaller error on typical (symmetric-ish) instances.
func A1CorrectionStyle(seed int64) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: root-based vs centered corrections",
		Claim:   "Thm 4.6 admits many optimal correction vectors; the centered variant keeps the guarantee and improves realized error",
		Columns: []string{"topology", "n", "A_max", "rho(root)", "rho(centered)", "same guarantee"},
	}
	cases := []struct {
		name string
		n    int
		topo scenario.Topology
	}{
		{"line", 8, scenario.Topology{Kind: "line"}},
		{"ring", 8, ring},
		{"complete", 8, complete},
		{"grid4x2", 8, scenario.Topology{Kind: "grid", W: 4, H: 2}},
	}
	for i, c := range cases {
		runOnce := func(centered bool) (*run, error) {
			b, err := build(instance(c.n, seed+int64(i), c.topo, link(symBounds(0.05, 0.3), uniform(0.05, 0.3)), 3), nil)
			if err != nil {
				return nil, err
			}
			return simulate(b, core.Options{Centered: centered})
		}
		root, err := runOnce(false)
		if err != nil {
			return nil, fmt.Errorf("A1(%s): %w", c.name, err)
		}
		cent, err := runOnce(true)
		if err != nil {
			return nil, fmt.Errorf("A1(%s): %w", c.name, err)
		}
		rhoRoot, err := core.Rho(root.starts, root.res.Corrections)
		if err != nil {
			return nil, err
		}
		rhoCent, err := core.Rho(cent.starts, cent.res.Corrections)
		if err != nil {
			return nil, err
		}
		same := math.Abs(root.res.Precision-cent.res.Precision) < 1e-9
		t.AddRow(c.name, fi(c.n), f(root.res.Precision), f(rhoRoot), f(rhoCent), fb(same))
	}
	return t, nil
}

// A2NonnegativeOption is the ablation for MLSOptions.AssumeNonnegative:
// when a link carries traffic but no declared assumption, the physical
// "delays >= 0" fact alone can connect the system.
func A2NonnegativeOption(seed int64) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: the implicit non-negativity assumption",
		Claim:   "Cor 6.4: even with no declared bounds, non-negative delays yield finite per-instance precision; disabling the option loses connectivity",
		Columns: []string{"variant", "precision", "components"},
	}
	// A line whose middle link {2,3} carries traffic but no declared
	// assumption: with the option off the constraint graph splits in two.
	const n = 6
	starts := sim.UniformStarts(rand.New(rand.NewSource(seed)), n, 1)
	s := scenario.Scenario{Processors: n, Starts: starts, Topology: scenario.Topology{Kind: "line"},
		DefaultLink: link(symBounds(0.05, 0.2), uniform(0.05, 0.2)),
		Protocol:    scenario.ProtocolSpec{Kind: "burst", K: 3, Spacing: 0.01, Warmup: sim.SafeWarmup(starts) + 0.5}}
	b, err := s.Build()
	if err != nil {
		return nil, err
	}
	b.RunCfg.Seed = seed
	exec, err := sim.Run(b.Net, b.Factory, b.RunCfg)
	if err != nil {
		return nil, err
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		return nil, err
	}
	// Traffic flows on {2,3}, but nothing is declared about it.
	links := slices.DeleteFunc(b.Links, func(l core.Link) bool { return l.P == 2 && l.Q == 3 })
	onFinite, offInfinite := false, false
	for _, variant := range []struct {
		name string
		opts core.MLSOptions
	}{
		{"nonnegative ON (default)", core.DefaultMLSOptions()},
		{"nonnegative OFF", core.MLSOptions{}},
	} {
		res, err := core.SynchronizeSystem(n, links, tab, variant.opts, core.Options{})
		if err != nil {
			return nil, err
		}
		if variant.opts.AssumeNonnegative {
			onFinite = !math.IsInf(res.Precision, 1)
		} else {
			offInfinite = math.IsInf(res.Precision, 1)
		}
		t.AddRow(variant.name, f(res.Precision), fi(len(res.Components)))
	}
	t.AddRow("claim holds", "", fb(onFinite && offInfinite))
	t.Notes = append(t.Notes, "the middle link {2,3} carries traffic but no declared assumption; only the ON variant can bound it")
	return t, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// T7Congestion exercises time-varying delays: links suffer periodic
// congestion episodes that inflate delays. Sound assumptions must cover
// the surge, yet most messages see quiet-period delays — exactly the
// "favorable conditions" the per-instance optimality notion was built to
// exploit (Section 3).
func T7Congestion(seed int64) (*Table, error) {
	t := &Table{
		ID:      "T7",
		Title:   "Congestion episodes: per-instance optimality under load",
		Claim:   "Section 3: instance optimality exploits favorable delays; worst-case-sound bounds must cover the surge, but the achieved precision tracks the quiet-period traffic",
		Columns: []string{"assumption", "A_max", "rho", "admissible"},
	}
	const (
		n           = 6
		lb, hi      = 0.02, 0.05
		surge       = 0.4
		probesPerLn = 8
	)
	variants := []struct {
		name string
		a    scenario.AssumptionSpec
	}{
		{"sound wide bounds [lb, hi+surge]", symBounds(lb, hi+surge)},
		{"no bounds (Cor 6.4)", noBounds},
		{"unsound tight bounds [lb, hi]", symBounds(lb, hi)},
	}
	// Congestion depends on time, so the first sends keep the schedule the
	// row was recorded with: the start spread plus half a second, not
	// Build's automatic second. The starts are the draws Build makes from
	// seed+5.
	warmup := sim.SafeWarmup(sim.UniformStarts(rand.New(rand.NewSource(seed+5)), n, 2)) + 0.5
	inner := uniform(lb, hi)
	s := instance(n, seed+5, ring, nil, probesPerLn)
	s.Protocol.Warmup = warmup
	for _, e := range sim.Ring(n) {
		s.Links = append(s.Links, scenario.LinkOverride{P: e.P, Q: e.Q, LinkSpec: scenario.LinkSpec{
			Delays: scenario.DelaySpec{Kind: "congestion", Inner: &inner, Period: 1.0, Duty: 0.3, Surge: surge,
				Phase: float64(min(e.P, e.Q)) * 0.17}}}) // desynchronized episodes
	}
	for _, v := range variants {
		for i := range s.Links {
			s.Links[i].Assumption = v.a
		}
		b, err := build(s, nil)
		if err != nil {
			return nil, fmt.Errorf("T7(%s): %w", v.name, err)
		}
		r, err := simulate(b, core.Options{Centered: true})
		if errors.Is(err, core.ErrInfeasible) {
			// The pipeline itself caught the lie: the observed estimates
			// admit no execution under the declared (false) assumption.
			t.AddRow(v.name, "rejected (infeasible)", "-", "NO")
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("T7(%s): %w", v.name, err)
		}
		rho, err := core.Rho(r.starts, r.res.Corrections)
		if err != nil {
			return nil, err
		}
		admissible := "yes"
		if err := verify.CheckAdmissible(r.exec, r.links, core.DefaultMLSOptions()); err != nil {
			admissible = "NO (guarantee void)"
		}
		t.AddRow(v.name, f(r.res.Precision), f(rho), admissible)
	}
	t.Notes = append(t.Notes,
		"the tight-bounds row demonstrates the built-in lie detection: violated assumptions either trip the ErrInfeasible feasibility check or the explicit admissibility verifier",
		"quiet-period minima dominate the observed extremes, so the sound rows approach the congestion-free precision",
	)
	return t, nil
}

// A3GraphAlgorithms is the ablation for the solver backends: the dense
// pipeline every batch solve runs (Floyd-Warshall closure of the whole
// matrix, then Karp and the corrections per component) versus the exact
// sparse one (CSR adjacency, component split, then the same kernels on a
// dense block per component), both through core.Synchronize, checked for
// bit-identical output and timed on sparse and dense instances.
func A3GraphAlgorithms(seed int64) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: graph algorithm choices",
		Claim:   "Section 4.4 uses Karp + all-pairs shortest paths; the dense and sparse backends give bit-identical corrections and precision",
		Columns: []string{"instance", "n", "edges", "dense solve", "sparse solve", "agree"},
	}
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"sparse", 48, 0.06},
		{"medium", 48, 0.3},
		{"dense", 48, 1.0},
		{"sparse-large", 96, 0.04},
	}
	for _, c := range cases {
		w := graph.RandomStronglyConnected(rng, c.n, c.p, 0.1, 1.0)
		var g graph.CSR
		g.FromDense(w)
		mls := w.Rows()

		// Each backend's time is the best of a few solves, so the first
		// solve's scratch growth does not count.
		var res [2]*core.Result
		var took [2]time.Duration
		for i, solver := range []core.Solver{core.SolverDense, core.SolverSparse} {
			for rep := 0; rep < 5; rep++ {
				t0 := time.Now()
				r, err := core.Synchronize(mls, core.Options{Solver: solver})
				if err != nil {
					return nil, fmt.Errorf("A3(%s): %w", c.name, err)
				}
				if d := time.Since(t0); rep == 0 || d < took[i] {
					took[i] = d
				}
				res[i] = r
			}
		}
		agree := math.Float64bits(res[0].Precision) == math.Float64bits(res[1].Precision) &&
			len(res[0].Corrections) == len(res[1].Corrections)
		for p := 0; agree && p < len(res[0].Corrections); p++ {
			agree = math.Float64bits(res[0].Corrections[p]) == math.Float64bits(res[1].Corrections[p])
		}
		t.AddRow(c.name, fi(c.n), fi(g.Nnz()), took[0].String(), took[1].String(), fb(agree))
	}
	t.Notes = append(t.Notes,
		"a strongly connected instance is one sync component, so the sparse backend closes it as one dense block and runs the same O(n^3) kernels as the dense backend, after assembling the CSR adjacency and splitting it",
	)
	return t, nil
}

// F7PairedBias exercises the "messages sent around the same time"
// generalization Section 6.2 sketches: load varies slowly, so only
// request/response pairs share a load level. The paired model stays sound
// with a tiny bound; the unpaired model needs a bound covering the whole
// load swing.
func F7PairedBias(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F7",
		Title:   "Paired bias: same-time pairs under varying load",
		Claim:   "§6.2 generalization: pairing by exchange keeps the small bias bound sound under load swings the unpaired model cannot tolerate",
		Columns: []string{"model", "A_max", "rho", "sound"},
	}
	const (
		n       = 6
		base    = 0.1
		width   = 0.004 // per-exchange asymmetry
		swing   = 0.25  // slow load variation across exchanges
		perLink = 8
	)
	rng := rand.New(rand.NewSource(seed))
	starts := sim.UniformStarts(rng, n, 1)
	b := model.NewBuilder(starts)
	sendAt := 2.0
	pairsByLink := make(map[trace.LinkKey][]delay.DelayPair)
	for _, e := range sim.Ring(n) {
		key := trace.Canon(model.ProcID(e.P), model.ProcID(e.Q))
		for i := 0; i < perLink; i++ {
			load := swing * 0.5 * (1 + math.Sin(float64(i)+float64(e.P)))
			d1 := base + load + width*rng.Float64()/2
			d2 := base + load + width*rng.Float64()/2
			tm := sendAt + float64(i)
			if _, err := b.AddMessageDelay(key.P, key.Q, tm, d1); err != nil {
				return nil, err
			}
			if _, err := b.AddMessageDelay(key.Q, key.P, tm+d1+0.001, d2); err != nil {
				return nil, err
			}
			pairsByLink[key] = append(pairsByLink[key], delay.DelayPair{PQ: d1, QP: d2})
		}
	}
	exec, err := b.Build()
	if err != nil {
		return nil, err
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		return nil, err
	}
	estPairs, err := trace.CollectPairs(exec)
	if err != nil {
		return nil, err
	}
	pb, err := delay.NewPairedBias(width)
	if err != nil {
		return nil, err
	}

	// Variant 1: exact paired bias (per-pair data) + non-negativity.
	mlsPaired, err := core.MLSMatrix(n, nil, tab, core.DefaultMLSOptions())
	if err != nil {
		return nil, err
	}
	for key, ps := range estPairs {
		if err := core.ApplyPairedBias(mlsPaired, key, pb, ps); err != nil {
			return nil, err
		}
	}
	// Variant 2: unpaired bias, sound only with the full swing covered.
	wide := must(bias(width + swing))
	// Variant 3: no bounds at all.
	variants := []struct {
		name string
		mls  func() ([][]float64, error)
		adm  bool
	}{
		{"paired bias B=width (exact)", func() ([][]float64, error) { return graph.CloneMatrix(mlsPaired), nil }, true},
		{"unpaired bias B=width+swing", func() ([][]float64, error) {
			return core.MLSMatrix(n, linksOn(sim.Ring(n), wide), tab, core.DefaultMLSOptions())
		}, true},
		{"no bounds", func() ([][]float64, error) {
			return core.MLSMatrix(n, nil, tab, core.DefaultMLSOptions())
		}, true},
	}
	for _, v := range variants {
		mls, err := v.mls()
		if err != nil {
			return nil, fmt.Errorf("F7(%s): %w", v.name, err)
		}
		res, err := core.Synchronize(mls, core.Options{Centered: true})
		if err != nil {
			return nil, fmt.Errorf("F7(%s): %w", v.name, err)
		}
		rho, err := core.Rho(starts, res.Corrections)
		if err != nil {
			return nil, err
		}
		sound := rho <= res.Precision+1e-9
		// The paired model's admissibility: every actual pair within width.
		if v.name == "paired bias B=width (exact)" {
			actPairs, err := trace.CollectActualPairs(exec)
			if err != nil {
				return nil, err
			}
			for _, ps := range actPairs {
				dps := make([]delay.DelayPair, len(ps))
				for i, p := range ps {
					dps[i] = delay.DelayPair{PQ: p.PQ, QP: p.QP}
				}
				if !pb.AdmitsPairs(dps) {
					sound = false
				}
			}
		}
		t.AddRow(v.name, f(res.Precision), f(rho), fb(sound))
	}
	// The small-bound UNPAIRED model is violated by construction: record it.
	tight := must(bias(width))
	violated := false
	actTab, err := trace.CollectActual(exec, true)
	if err != nil {
		return nil, err
	}
	for _, e := range sim.Ring(n) {
		key := trace.Canon(model.ProcID(e.P), model.ProcID(e.Q))
		if !tight.Admits(actTab.Raw(key.P, key.Q), actTab.Raw(key.Q, key.P)) {
			violated = true
		}
	}
	t.AddRow("unpaired bias B=width", "inadmissible", "-", fb(violated))
	t.Notes = append(t.Notes,
		"load swings 0.25 s across exchanges while each exchange's two directions agree to 4 ms: pairing recovers most of the precision the load swing would otherwise destroy",
	)
	return t, nil
}

// F8PairBounds plots the tight per-pair precision bound against hop
// distance on a ring: nearby processors enjoy far better guarantees than
// the global A_max suggests, a direct consequence of the m~s structure of
// Theorem 4.4.
func F8PairBounds(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F8",
		Title:   "Per-pair precision bounds vs distance",
		Claim:   "Claim 4.2 per pair: sup discrepancy(p,q) = m~s(p,q) - x_p + x_q, observable from views; adjacent pairs beat the global A_max",
		Columns: []string{"hop distance", "pair bound (ring16)", "predicted hops*u/2", "match"},
	}
	const n, u = f8N, f8U
	b, err := build(f8Instance(seed), nil)
	if err != nil {
		return nil, fmt.Errorf("F8: %w", err)
	}
	r, err := simulate(b, f8Options)
	if err != nil {
		return nil, fmt.Errorf("F8: %w", err)
	}
	for hops := 1; hops <= n/2; hops++ {
		b, err := r.res.PairBound(0, hops)
		if err != nil {
			return nil, err
		}
		pred := float64(hops) * u / 2
		t.AddRow(fi(hops), f(b), f(pred), fb(math.Abs(b-pred) < 1e-9))
	}
	t.Notes = append(t.Notes,
		"constant midpoint delays: the pair bound is exactly hops*u/2, while the global precision is the antipodal value",
	)
	return t, nil
}

// F8 solves one instance, replayable from its JSON as it stands:
// constant midpoint delays on a ring of f8N processors under
// [0.1, 0.1+f8U] bounds, solved with f8Options.
const f8N, f8U = 16, 0.1

var f8Options = core.Options{Centered: true}

func f8Instance(seed int64) scenario.Scenario {
	return instance(f8N, seed, ring, midpoint(0.1, f8U), 1)
}
