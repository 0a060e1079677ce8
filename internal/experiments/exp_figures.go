package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// F1UncertaintySweep plots precision against the delay uncertainty
// u = U - L for three 8-processor topologies: linear growth with a
// topology-dependent slope (Lemma 6.2 feeding the cycle structure of
// Theorem 4.4).
func F1UncertaintySweep(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F1",
		Title:   "Precision vs uncertainty",
		Claim:   "Lemma 6.2 + Thm 4.4: A_max grows linearly in u; the slope reflects the topology's cycle structure",
		Columns: []string{"u", "A_max(line8)", "A_max(ring8)", "A_max(complete8)"},
	}
	const n, lb = 8, 0.1
	topos := []scenario.Topology{{Kind: "line"}, ring, complete}
	for _, u := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		row := []string{f(u)}
		for ti, topo := range topos {
			b, err := build(instance(n, seed+int64(ti), topo, midpoint(lb, u), 1), nil)
			if err != nil {
				return nil, fmt.Errorf("F1(u=%v,topo=%d): %w", u, ti, err)
			}
			r, err := simulate(b, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("F1(u=%v,topo=%d): %w", u, ti, err)
			}
			row = append(row, f(r.res.Precision))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"constant midpoint delays: line slope = (n-1)/2, ring slope = floor(n/2)/2, complete slope = 1/2",
	)
	return t, nil
}

// F2AsyncMessages exercises the no-bounds model (Corollary 6.4): the worst
// case is unbounded, yet each instance gets a finite precision that
// improves as more messages tighten the observed minimum delays.
func F2AsyncMessages(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F2",
		Title:   "No-bounds model: precision vs messages",
		Claim:   "Cor 6.4 + Section 3: per-instance precision is finite and shrinks toward the cycle mean of true minimum delays as k grows",
		Columns: []string{"k", "A_max(mean of 5 runs)", "limit (true min delays)"},
	}
	const (
		n    = 6
		dMin = 0.05
		mean = 0.2
	)
	// Limit: as k -> infinity, d~min -> dMin + skew terms; A_max -> max
	// cycle mean of hop-count * dMin, i.e. antipodal 2-cycle mean
	// = floor(n/2) * dMin.
	limit := float64(n/2) * dMin
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		sum := 0.0
		const reps = 5
		for rep := 0; rep < reps; rep++ {
			b, err := build(instance(n, seed+int64(1000*k+rep), ring,
				link(noBounds, symmetric(scenario.SamplerSpec{Kind: "shiftedExp", Min: dMin, Mean: mean})), k), nil)
			if err != nil {
				return nil, fmt.Errorf("F2(k=%d): %w", k, err)
			}
			r, err := simulate(b, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("F2(k=%d): %w", k, err)
			}
			if math.IsInf(r.res.Precision, 1) {
				return nil, fmt.Errorf("F2(k=%d): infinite precision on connected ring", k)
			}
			sum += r.res.Precision
		}
		t.AddRow(fi(k), f(sum/reps), f(limit))
	}
	t.Notes = append(t.Notes,
		"no upper bounds exist, so the worst-case precision of ANY algorithm is unbounded (Section 3); the per-instance bound is what the paper's optimality notion delivers",
	)
	return t, nil
}

// F3BiasSweep plots precision against the round-trip bias bound b
// (Lemma 6.5): precision grows like b/2 per link until the non-negativity
// term takes over, and the bias model beats the no-bounds model whenever b
// is small relative to the absolute delays.
func F3BiasSweep(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F3",
		Title:   "Bias model: precision vs bias bound",
		Claim:   "Lemma 6.5 / Cor 6.6: A_max tracks b until d~min dominates; crossover vs the no-bounds model",
		Columns: []string{"b", "A_max(bias,n=2)", "A_max(bias,ring8)", "A_max(no-bounds,ring8)"},
	}
	const (
		base  = 0.3
		width = 0.05
	)
	mk := func(n int, a scenario.AssumptionSpec, localSeed int64) (float64, error) {
		b, err := build(instance(n, localSeed, ring, link(a, scenario.DelaySpec{Kind: "biasWindow", Base: base, Width: width}), 4), nil)
		if err != nil {
			return 0, err
		}
		r, err := simulate(b, core.Options{})
		if err != nil {
			return 0, err
		}
		return r.res.Precision, nil
	}
	for _, b := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6} {
		a2, err := mk(2, bias(b), seed+1)
		if err != nil {
			return nil, fmt.Errorf("F3(b=%v): %w", b, err)
		}
		a8, err := mk(8, bias(b), seed+2)
		if err != nil {
			return nil, fmt.Errorf("F3(b=%v): %w", b, err)
		}
		nb, err := mk(8, noBounds, seed+2)
		if err != nil {
			return nil, fmt.Errorf("F3(b=%v, nobounds): %w", b, err)
		}
		t.AddRow(f(b), f(a2), f(a8), f(nb))
	}
	t.Notes = append(t.Notes,
		"delays live in a correlated window [0.3,0.35]: the bias assumption with small b crushes the no-bounds precision; for large b the two coincide (min-delay term binds in both)",
	)
	return t, nil
}

// F4Scaling measures the O(n^3) pipeline cost (Karp via Floyd-Warshall,
// Section 4.4) on complete random instances.
func F4Scaling(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F4",
		Title:   "Pipeline runtime scaling",
		Claim:   "Section 4.4: SHIFTS runs in O(n^3) (Karp [5] + all-pairs shortest paths)",
		Columns: []string{"n", "elapsed", "ns/n^3"},
	}
	rng := rand.New(rand.NewSource(seed))
	// One Synchronizer across the whole sweep: after the first call per
	// size the scratch is warm and the loop measures pure pipeline cost,
	// not allocator traffic.
	sync := core.NewSynchronizer()
	defer sync.Close()
	for _, n := range []int{8, 16, 32, 64, 96} {
		mls := graph.NewMatrix(n, 0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				mls[i][j] = 0.1 + rng.Float64()
			}
		}
		start := time.Now()
		const reps = 3
		for r := 0; r < reps; r++ {
			if _, err := sync.Sync(mls, core.Options{Parallelism: 1}); err != nil {
				return nil, fmt.Errorf("F4(n=%d): %w", n, err)
			}
		}
		el := time.Since(start) / reps
		perN3 := float64(el.Nanoseconds()) / (float64(n) * float64(n) * float64(n))
		t.AddRow(fi(n), el.String(), f(perN3))
	}
	t.Notes = append(t.Notes, "ns/n^3 roughly constant confirms the cubic pipeline")
	return t, nil
}

// F5RingDiameter plots precision against ring size with constant midpoint
// delays: the antipodal pair dominates, so A_max = floor(n/2) * u/2
// exactly (Theorem 4.4's cycle structure made visible).
func F5RingDiameter(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F5",
		Title:   "Precision vs ring size",
		Claim:   "Thm 4.4: A_max on a ring is floor(n/2)*u/2 — precision degrades with graph distance",
		Columns: []string{"n", "A_max", "predicted", "match"},
	}
	const (
		lb = 0.1
		u  = 0.1
	)
	for _, n := range []int{3, 4, 5, 6, 8, 12, 16, 24, 32} {
		b, err := build(instance(n, seed+int64(n), ring, midpoint(lb, u), 1), nil)
		if err != nil {
			return nil, fmt.Errorf("F5(n=%d): %w", n, err)
		}
		r, err := simulate(b, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("F5(n=%d): %w", n, err)
		}
		pred := float64(n/2) * u / 2
		t.AddRow(fi(n), f(r.res.Precision), f(pred), fb(math.Abs(r.res.Precision-pred) < 1e-9))
	}
	return t, nil
}

// F6TraceReduction measures the throughput of the view-to-statistics
// reduction (Lemma 6.1 machinery) on large traces.
func F6TraceReduction(seed int64) (*Table, error) {
	t := &Table{
		ID:      "F6",
		Title:   "View reduction throughput",
		Claim:   "Lemma 6.1: estimated delays are a linear scan over the views; reduction is cheap",
		Columns: []string{"messages", "elapsed", "msgs/sec"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, total := range []int{10_000, 100_000, 500_000} {
		const n = 16
		starts := sim.UniformStarts(rng, n, 1)
		b := model.NewBuilder(starts)
		perPair := total / (n * (n - 1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				for k := 0; k < perPair; k++ {
					if _, err := b.AddMessageDelay(model.ProcID(i), model.ProcID(j), 2+float64(k)*0.001, 0.05+0.1*rng.Float64()); err != nil {
						return nil, err
					}
				}
			}
		}
		e, err := b.Build()
		if err != nil {
			return nil, err
		}
		startT := time.Now()
		tab, err := trace.Collect(e, false)
		if err != nil {
			return nil, err
		}
		el := time.Since(startT)
		count := 0
		tab.Pairs(func(_, _ model.ProcID, pq, _ trace.DirStats) { count += pq.Count })
		rate := float64(count) / el.Seconds()
		t.AddRow(fi(count), el.String(), fmt.Sprintf("%.3g", rate))
	}
	return t, nil
}
