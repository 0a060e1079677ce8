// Package genfuzz is the generative scenario-fuzzing harness: a seeded
// generator of random synchronization scenarios (topologies, per-link
// mixtures of delay assumptions, fault and Byzantine schedules), a
// differential oracle that cross-checks every instance against the
// brute-force verifier, the baseline synchronizers, all solver backends
// and a streaming replay, and a delta-debugging shrinker that reduces a
// failing instance to a minimal reproducer.
//
// The design follows microsmith's random-program builder: a single seed
// drives every choice, so any instance — and any finding — is replayable
// from its seed alone (see cmd/genfuzz and docs/fuzzing.md).
package genfuzz

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync/internal/scenario"
	"clocksync/internal/sim"
)

// Config bounds the generator. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// MinProcs/MaxProcs bound the system size n.
	MinProcs, MaxProcs int
	// FaultProb is the probability that an instance carries a fault
	// schedule (crashes, partitions, flood loss).
	FaultProb float64
	// ByzantineProb is the probability that a faulty instance additionally
	// lists Byzantine reporters. The measurement protocols ignore them
	// (no payload mutator), but the entries exercise scenario validation
	// and the JSON round trip on every run.
	ByzantineProb float64
	// UnsoundProb is the probability that one link's declared assumption
	// is deliberately too tight for its delay model. Such instances are
	// marked !Sound: the oracle skips ground-truth optimality checks but
	// still requires every backend to agree bit for bit on whatever the
	// instance produces (including errors).
	UnsoundProb float64
	// LinkLossProb is the probability that a link's delay model is
	// wrapped in per-message loss.
	LinkLossProb float64
	// CongestionProb is the probability that a link's delays are wrapped
	// in periodic congestion surges.
	CongestionProb float64
	// OverrideProb is the probability that a topology link receives its
	// own LinkSpec instead of inheriting defaultLink.
	OverrideProb float64
}

// DefaultConfig returns the generator bounds used by cmd/genfuzz and CI.
func DefaultConfig() Config {
	return Config{
		MinProcs:       2,
		MaxProcs:       16,
		FaultProb:      0.4,
		ByzantineProb:  0.3,
		UnsoundProb:    0.05,
		LinkLossProb:   0.15,
		CongestionProb: 0.2,
		OverrideProb:   0.35,
	}
}

// Instance is one generated scenario plus the metadata the oracle needs.
type Instance struct {
	// Seed is the generator seed that reproduces the instance exactly.
	Seed int64
	// Scenario is the generated run description.
	Scenario *scenario.Scenario
	// Sound reports that every link's declared assumption admits every
	// delay its model can produce, so the paper's optimality theorems
	// must hold on the instance. Unsound instances only promise
	// backend-consistency.
	Sound bool
}

// Generate builds the instance for a seed under the given bounds. It is a
// pure function of (seed, cfg): the same pair always yields the same
// scenario, which is what makes findings replayable.
func Generate(seed int64, cfg Config) *Instance {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{rng: rng, cfg: cfg}
	sc := g.scenario()
	return &Instance{Seed: seed, Scenario: sc, Sound: g.sound}
}

// gen carries the generator state for one instance.
type gen struct {
	rng   *rand.Rand
	cfg   Config
	sound bool
}

// scenario assembles the full instance.
func (g *gen) scenario() *scenario.Scenario {
	g.sound = true
	n, topo := g.topology()
	pairs, err := topo.Materialize(n, nil)
	if err != nil {
		panic("genfuzz: generated topology does not materialize: " + err.Error())
	}
	sc := &scenario.Scenario{
		Processors:  n,
		Seed:        g.rng.Int63(),
		StartSpread: 0.5 + 2.5*g.rng.Float64(),
		Topology:    topo,
	}
	def := g.linkSpec()
	sc.DefaultLink = &def
	if g.cfg.OverrideProb > 0 {
		for _, e := range pairs {
			if g.rng.Float64() < g.cfg.OverrideProb {
				sc.Links = append(sc.Links, scenario.LinkOverride{P: e.P, Q: e.Q, LinkSpec: g.linkSpec()})
			}
		}
	}
	sc.Protocol = g.protocol()
	if g.rng.Float64() < g.cfg.FaultProb {
		sc.Faults = g.faults(n, pairs)
	}
	return sc
}

// topology picks a link structure from ten families of the sim
// catalogue: six of the scenario kinds, plus the families that stress
// component handling and the sparse and hierarchical partitioning: rings
// of small cliques, chord rings, barbells (two cliques on a long path)
// and two disjoint rings. The chord ring is a custom pair list, since
// its chords come from the generator's draws.
func (g *gen) topology() (int, scenario.Topology) {
	span := g.cfg.MaxProcs - g.cfg.MinProcs
	n := g.cfg.MinProcs
	if span > 0 {
		n += g.rng.Intn(span + 1)
	}
	if n < 2 {
		n = 2
	}
	switch g.rng.Intn(10) {
	case 0:
		return n, scenario.Topology{Kind: "line"}
	case 1:
		return n, scenario.Topology{Kind: "ring"}
	case 2:
		return n, scenario.Topology{Kind: "star"}
	case 3:
		return min(n, 8), scenario.Topology{Kind: "complete"}
	case 4:
		return n, scenario.Topology{Kind: "tree", B: 2 + g.rng.Intn(2)}
	case 5:
		w := 2 + g.rng.Intn(3)
		h := 2 + g.rng.Intn(3)
		return w * h, scenario.Topology{Kind: "grid", W: w, H: h}
	case 6:
		size := 2 + g.rng.Intn(3)
		return max(n/size, 2) * size, scenario.Topology{Kind: "ringOfCliques", K: size}
	case 7:
		n = max(n, 4)
		chords := g.rng.Intn(n/2 + 1)
		t := scenario.Topology{Kind: "custom"}
		for _, e := range sim.ChordRing(g.rng, n, chords) {
			t.Pairs = append(t.Pairs, [2]int{e.P, e.Q})
		}
		return n, t
	case 8:
		n = max(n, 6)
		k := 2 + g.rng.Intn(2) // clique size at each end
		if 2*k >= n {
			k = 2
		}
		return n, scenario.Topology{Kind: "barbell", K: k}
	default:
		n = max(n, 4)
		cut := 2 + g.rng.Intn(n-3) // first ring's size in [2, n-2]
		return n, scenario.Topology{Kind: "twoRings", K: cut}
	}
}

// envelope is the support of a generated sampler: every delay it can
// produce lies in [lo, hi] (hi may be +Inf for heavy-tailed samplers).
type envelope struct {
	lo, hi float64
}

// linkSpec generates one delay model plus an assumption that is sound for
// it (unless the unsound dice say otherwise).
func (g *gen) linkSpec() scenario.LinkSpec {
	var spec scenario.LinkSpec
	var env envelope

	// Delay model first; the assumption is derived from its support.
	switch g.rng.Intn(4) {
	case 0: // symmetric sampler
		s, e := g.sampler()
		spec.Delays = scenario.DelaySpec{Kind: "symmetric", Sampler: &s}
		env = e
	case 1: // independent per-direction samplers
		a, ea := g.sampler()
		b, eb := g.sampler()
		spec.Delays = scenario.DelaySpec{Kind: "independent", PQ: &a, QP: &b}
		env = envelope{lo: math.Min(ea.lo, eb.lo), hi: math.Max(ea.hi, eb.hi)}
	default: // biasWindow: both directions inside one narrow window
		base := round3(0.02 + 0.2*g.rng.Float64())
		width := round3(0.002 + 0.02*g.rng.Float64())
		spec.Delays = scenario.DelaySpec{Kind: "biasWindow", Base: base, Width: width}
		env = envelope{lo: base, hi: base + width}
	}

	// Optional congestion surge widens the support.
	if g.rng.Float64() < g.cfg.CongestionProb && !math.IsInf(env.hi, 1) {
		surge := round3(0.01 + 0.1*g.rng.Float64())
		spec.Delays = scenario.DelaySpec{
			Kind:   "congestion",
			Inner:  cloneDelaySpec(spec.Delays),
			Period: round3(0.5 + g.rng.Float64()),
			Duty:   round3(0.2 + 0.5*g.rng.Float64()),
			Surge:  surge,
			Phase:  round3(g.rng.Float64()),
		}
		env.hi += surge
	}

	spec.Assumption = g.assumption(env)

	if g.rng.Float64() < g.cfg.LinkLossProb {
		spec.Loss = round3(0.05 + 0.25*g.rng.Float64())
	}
	return spec
}

// sampler draws a delay sampler and reports its support.
func (g *gen) sampler() (scenario.SamplerSpec, envelope) {
	switch g.rng.Intn(5) {
	case 0:
		d := round3(0.01 + 0.2*g.rng.Float64())
		return scenario.SamplerSpec{Kind: "constant", D: d}, envelope{d, d}
	case 1:
		lo := round3(0.01 + 0.1*g.rng.Float64())
		hi := round3(lo + 0.005 + 0.15*g.rng.Float64())
		return scenario.SamplerSpec{Kind: "uniform", Lo: lo, Hi: hi}, envelope{lo, hi}
	case 2:
		lo := round3(0.01 + 0.1*g.rng.Float64())
		hi := round3(lo + 0.01 + 0.1*g.rng.Float64())
		mu := round3(lo + (hi-lo)*g.rng.Float64())
		return scenario.SamplerSpec{Kind: "truncNormal", Mu: mu, Sig: round3(0.005 + 0.05*g.rng.Float64()), Lo: lo, Hi: hi}, envelope{lo, hi}
	case 3: // heavy tail: support unbounded above
		minD := round3(0.01 + 0.05*g.rng.Float64())
		return scenario.SamplerSpec{Kind: "shiftedExp", Min: minD, Mean: round3(0.01 + 0.08*g.rng.Float64())}, envelope{minD, math.Inf(1)}
	default: // bimodal over two bounded modes
		a := round3(0.01 + 0.05*g.rng.Float64())
		b := round3(a + 0.05 + 0.2*g.rng.Float64())
		return scenario.SamplerSpec{
			Kind: "bimodal",
			A:    &scenario.SamplerSpec{Kind: "constant", D: a},
			B:    &scenario.SamplerSpec{Kind: "constant", D: b},
			PA:   round3(0.1 + 0.8*g.rng.Float64()),
		}, envelope{a, b}
	}
}

// assumption picks a delay assumption admitting every delay in env — the
// per-link mixture of the paper's models 1-3 plus the RTT-bias model and
// Theorem 5.6 intersections. With probability cfg.UnsoundProb it instead
// returns a deliberately too-tight assumption and flags the instance.
func (g *gen) assumption(env envelope) scenario.AssumptionSpec {
	if g.rng.Float64() < g.cfg.UnsoundProb {
		g.sound = false
		// An upper bound strictly below the support maximum: observable
		// executions can violate it, so estimates may go infeasible or
		// admissibility checks may fail — either way, every backend must
		// tell the same story.
		ub := env.lo + 0.5*(math.Min(env.hi, env.lo+0.1)-env.lo)
		return scenario.AssumptionSpec{Kind: "symmetricBounds", LB: 0, UB: round3n(ub)}
	}
	kinds := []int{0, 1, 2} // noBounds, lowerOnly, bounds-ish
	width := env.hi - env.lo
	if !math.IsInf(env.hi, 1) {
		kinds = append(kinds, 3, 4) // bias and intersections need finite width
	}
	switch kinds[g.rng.Intn(len(kinds))] {
	case 0:
		return scenario.AssumptionSpec{Kind: "noBounds"}
	case 1: // model 2: lower bounds only, lb < lo
		return scenario.AssumptionSpec{
			Kind: "lowerOnly",
			LBPQ: lbBelow(env.lo*g.rng.Float64(), env.lo),
			LBQP: lbBelow(env.lo*g.rng.Float64(), env.lo),
		}
	case 2:
		if math.IsInf(env.hi, 1) {
			return scenario.AssumptionSpec{Kind: "lowerOnly", LBPQ: lbBelow(env.lo, env.lo), LBQP: lbBelow(env.lo, env.lo)}
		}
		if g.rng.Intn(2) == 0 { // model 1: two-sided symmetric bounds
			return scenario.AssumptionSpec{Kind: "symmetricBounds", LB: lbBelow(env.lo*g.rng.Float64(), env.lo), UB: ubAbove(env.hi+0.05*g.rng.Float64(), env.hi)}
		}
		return scenario.AssumptionSpec{ // asymmetric two-sided bounds
			Kind: "bounds",
			LBPQ: lbBelow(env.lo*g.rng.Float64(), env.lo), UBPQ: ubAbove(env.hi+0.05*g.rng.Float64(), env.hi),
			LBQP: lbBelow(env.lo*g.rng.Float64(), env.lo), UBQP: ubAbove(env.hi+0.05*g.rng.Float64(), env.hi),
		}
	case 3: // RTT bias: window width covers the whole support spread
		return scenario.AssumptionSpec{Kind: "bias", B: roundUp3(width + 0.002)}
	default: // Theorem 5.6 intersection of two sound parts
		return scenario.AssumptionSpec{Kind: "and", Parts: []scenario.AssumptionSpec{
			{Kind: "symmetricBounds", LB: lbBelow(env.lo/2, env.lo), UB: ubAbove(env.hi+0.02, env.hi)},
			{Kind: "bias", B: roundUp3(width + 0.002)},
		}}
	}
}

// protocol draws the measurement traffic pattern. Warmup -1 selects the
// safe automatic warmup so no message races a processor's start.
func (g *gen) protocol() scenario.ProtocolSpec {
	switch g.rng.Intn(3) {
	case 0:
		return scenario.ProtocolSpec{Kind: "burst", K: 1 + g.rng.Intn(5), Spacing: round3(0.01 * g.rng.Float64()), Warmup: -1}
	case 1:
		return scenario.ProtocolSpec{Kind: "periodic", Period: round3(0.1 + 0.4*g.rng.Float64()), Count: 1 + g.rng.Intn(4), Warmup: -1}
	default:
		return scenario.ProtocolSpec{Kind: "pingpong", Rounds: 1 + g.rng.Intn(4), Warmup: -1}
	}
}

// faults draws a crash/partition/loss/byzantine schedule. Times target the
// measurement window (after the automatic warmup of roughly spread+1) so
// faults actually intersect traffic instead of landing on idle air.
func (g *gen) faults(n int, pairs []sim.Pair) *scenario.FaultsSpec {
	f := &scenario.FaultsSpec{}
	for c := g.rng.Intn(3); c > 0; c-- {
		f.Crashes = append(f.Crashes, scenario.CrashSpec{
			Proc: g.rng.Intn(n),
			At:   round3(0.5 + 4*g.rng.Float64()),
		})
	}
	for p := g.rng.Intn(3); p > 0 && len(pairs) > 0; p-- {
		e := pairs[g.rng.Intn(len(pairs))]
		from := round3(4 * g.rng.Float64())
		spec := scenario.PartitionSpec{P: e.P, Q: e.Q, From: from}
		if g.rng.Intn(2) == 0 {
			spec.Until = round3(from + 0.5 + 2*g.rng.Float64())
		}
		f.Partitions = append(f.Partitions, spec)
	}
	if g.rng.Intn(2) == 0 {
		f.Loss = round3(0.3 * g.rng.Float64())
	}
	if g.rng.Float64() < g.cfg.ByzantineProb {
		strategies := []string{"inflate", "deflate", "skew", "equivocate", "forge"}
		spec := scenario.ByzantineSpec{
			Strategy:  strategies[g.rng.Intn(len(strategies))],
			Magnitude: round3(0.5 * g.rng.Float64()),
			Seed:      g.rng.Int63(),
		}
		if g.rng.Intn(2) == 0 || n < 4 {
			p := g.rng.Intn(n)
			spec.Proc = &p
		} else {
			// floor(fraction*n) >= 1 needs fraction >= 1/n; 0.25 is safe
			// for every n >= 4, so the entry never selects nobody.
			spec.Fraction = round3(0.25 + 0.25*g.rng.Float64())
		}
		f.Byzantine = append(f.Byzantine, spec)
	}
	if len(f.Crashes) == 0 && len(f.Partitions) == 0 && f.Loss == 0 && len(f.Byzantine) == 0 {
		return nil
	}
	return f
}

func cloneDelaySpec(d scenario.DelaySpec) *scenario.DelaySpec {
	c := d
	return &c
}

// round3 quantizes generated parameters to 1e-3 so reproducers and golden
// files stay human-readable and diff cleanly.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// roundDown3/roundUp3 quantize directionally so rounding can never turn a
// sound assumption unsound (lower bounds only move down, upper bounds and
// bias windows only move up).
func roundDown3(x float64) float64 { return math.Floor(x*1000) / 1000 }
func roundUp3(x float64) float64   { return math.Ceil(x*1000) / 1000 }

// lbBelow quantizes a lower-bound target x to 1e-3, clamped at least one
// full quantum below the support minimum lo. Actual delays are
// reconstructed from floating-point event times (recv − send), so an
// observed delay can land a few ulps below the sampled value; a bound
// touching the support edge would turn that roundoff into spurious
// admissibility findings on sound instances.
func lbBelow(x, lo float64) float64 {
	b := roundDown3(x)
	if edge := math.Floor(lo*1000-1) / 1000; b > edge {
		b = edge
	}
	if b < 0 {
		b = 0
	}
	return b
}

// ubAbove quantizes an upper-bound target x to 1e-3, at least one full
// quantum above the support maximum hi — the mirror of lbBelow for the
// same event-time roundoff reason.
func ubAbove(x, hi float64) float64 {
	u := roundUp3(x)
	if edge := math.Ceil(hi*1000+1) / 1000; u < edge {
		u = edge
	}
	return u
}

// round3n is round3 guarding against the tiny negatives Floor tricks can
// produce on denormal inputs.
func round3n(x float64) float64 {
	r := round3(x)
	if r < 0 {
		return 0
	}
	return r
}

// String summarizes the instance for logs.
func (in *Instance) String() string {
	sc := in.Scenario
	links := len(sc.Topology.Pairs)
	if sc.Topology.Kind != "custom" {
		links = -1
	}
	return fmt.Sprintf("instance(seed=%d n=%d topo=%s links=%d sound=%v)",
		in.Seed, sc.Processors, sc.Topology.Kind, links, in.Sound)
}
