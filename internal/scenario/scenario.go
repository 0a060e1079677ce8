// Package scenario binds a simulated system description — topology, start
// times, per-link delay samplers and delay assumptions, measurement
// protocol — into one JSON-serializable value, so the CLI, the examples
// and the experiment harness share a single configuration language.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/sim"
)

// Scenario is a complete run description.
type Scenario struct {
	// Processors is the system size n.
	Processors int `json:"processors"`
	// Seed drives all randomness (start times, delays).
	Seed int64 `json:"seed"`
	// StartSpread draws start times uniformly from [0, StartSpread) when
	// Starts is empty.
	StartSpread float64 `json:"startSpread,omitempty"`
	// Starts optionally pins the start times (length must equal
	// Processors).
	Starts []float64 `json:"starts,omitempty"`
	// Topology selects the link structure.
	Topology Topology `json:"topology"`
	// DefaultLink applies to links not listed in Links.
	DefaultLink *LinkSpec `json:"defaultLink,omitempty"`
	// Links overrides assumption/delays for specific links.
	Links []LinkOverride `json:"links,omitempty"`
	// Protocol selects the measurement traffic.
	Protocol ProtocolSpec `json:"protocol"`
	// Faults optionally injects crashes, partitions and message loss.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Comment is free-form provenance — e.g. which genfuzz seed produced
	// a promoted golden and how to regenerate it. Build ignores it.
	Comment string `json:"comment,omitempty"`
}

// FaultsSpec is the JSON form of a fault schedule.
type FaultsSpec struct {
	// Crashes stops processors at real times (crash-stop: no further
	// sends, receives or timers).
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Partitions drop every message crossing a link during a window.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	// Loss drops each message independently with this probability, on top
	// of any per-link loss models. Must be in [0, 1).
	Loss float64 `json:"loss,omitempty"`
	// Byzantine marks adversarial reporters. Entries take effect in
	// protocols that install a payload mutator (the distributed runners
	// do); the plain measurement protocols ignore them.
	Byzantine []ByzantineSpec `json:"byzantine,omitempty"`
}

// ByzantineSpec marks one adversarial reporter — or, via fraction, the
// ⌊fraction·n⌋ highest-numbered processors — with a lying strategy.
type ByzantineSpec struct {
	// Proc is the lying processor. Exactly one of Proc and Fraction must
	// be set (Proc is a pointer so processor 0 is expressible).
	Proc *int `json:"proc,omitempty"`
	// Fraction in (0, 1] expands to the ⌊fraction·n⌋ highest-numbered
	// processors, a convenient sweep axis for resilience experiments.
	Fraction float64 `json:"fraction,omitempty"`
	// Strategy is one of inflate|deflate|skew|equivocate|forge.
	Strategy string `json:"strategy"`
	// Magnitude scales the lie, in clock-time units.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Seed drives per-destination perturbations (equivocation).
	Seed int64 `json:"seed,omitempty"`
}

// CrashSpec crash-stops one processor.
type CrashSpec struct {
	Proc int     `json:"proc"`
	At   float64 `json:"at"`
}

// PartitionSpec cuts one link during [from, until). An until of 0 (or
// negative) means forever, mirroring the upper-bound sentinel convention.
type PartitionSpec struct {
	P     int     `json:"p"`
	Q     int     `json:"q"`
	From  float64 `json:"from"`
	Until float64 `json:"until,omitempty"`
}

// Build converts the spec into a simulator fault schedule for a system
// of n processors (n resolves fraction-form byzantine entries).
func (f *FaultsSpec) Build(n int) (*sim.Faults, error) {
	if f == nil {
		return nil, nil
	}
	if math.IsNaN(f.Loss) || f.Loss < 0 || f.Loss >= 1 {
		return nil, fmt.Errorf("scenario: faults.loss = %v, want [0, 1)", f.Loss)
	}
	faults := &sim.Faults{Loss: f.Loss}
	for i, c := range f.Crashes {
		if c.Proc < 0 || c.Proc >= n {
			return nil, fmt.Errorf("scenario: faults.crashes[%d].proc = %d, want [0, %d)", i, c.Proc, n)
		}
		if math.IsNaN(c.At) {
			return nil, fmt.Errorf("scenario: faults.crashes[%d].at = NaN", i)
		}
		faults.Crashes = append(faults.Crashes, sim.Crash{Proc: c.Proc, At: c.At})
	}
	for i, p := range f.Partitions {
		if p.P < 0 || p.P >= n || p.Q < 0 || p.Q >= n {
			return nil, fmt.Errorf("scenario: faults.partitions[%d] = (%d, %d), want endpoints in [0, %d)", i, p.P, p.Q, n)
		}
		if p.P == p.Q {
			return nil, fmt.Errorf("scenario: faults.partitions[%d] = (%d, %d): a processor cannot be partitioned from itself", i, p.P, p.Q)
		}
		if math.IsNaN(p.From) || math.IsNaN(p.Until) {
			return nil, fmt.Errorf("scenario: faults.partitions[%d]: from = %v, until = %v, want non-NaN", i, p.From, p.Until)
		}
		until := p.Until
		if until <= 0 {
			until = math.Inf(1)
		}
		faults.Partitions = append(faults.Partitions, sim.Partition{P: p.P, Q: p.Q, From: p.From, Until: until})
	}
	for i, b := range f.Byzantine {
		procs, err := b.procs(n)
		if err != nil {
			return nil, fmt.Errorf("scenario: faults.byzantine[%d]: %w", i, err)
		}
		if !sim.KnownByzantineStrategy(sim.ByzantineStrategy(b.Strategy)) {
			return nil, fmt.Errorf("scenario: faults.byzantine[%d].strategy = %q, want inflate|deflate|skew|equivocate|forge", i, b.Strategy)
		}
		if math.IsNaN(b.Magnitude) || math.IsInf(b.Magnitude, 0) || b.Magnitude < 0 {
			return nil, fmt.Errorf("scenario: faults.byzantine[%d].magnitude = %v, want finite >= 0", i, b.Magnitude)
		}
		for _, p := range procs {
			faults.Byzantine = append(faults.Byzantine, sim.Byzantine{
				Proc: p, Strategy: sim.ByzantineStrategy(b.Strategy), Magnitude: b.Magnitude, Seed: b.Seed,
			})
		}
	}
	return faults, nil
}

// procs resolves a byzantine entry to concrete processor ids.
func (b ByzantineSpec) procs(n int) ([]int, error) {
	switch {
	case b.Proc != nil && b.Fraction != 0:
		return nil, fmt.Errorf("proc = %d and fraction = %v are mutually exclusive; set exactly one", *b.Proc, b.Fraction)
	case b.Proc != nil:
		if *b.Proc < 0 || *b.Proc >= n {
			return nil, fmt.Errorf("proc = %d, want [0, %d)", *b.Proc, n)
		}
		return []int{*b.Proc}, nil
	case b.Fraction != 0:
		if math.IsNaN(b.Fraction) || b.Fraction < 0 || b.Fraction > 1 {
			return nil, fmt.Errorf("fraction = %v, want (0, 1]", b.Fraction)
		}
		// The nudge absorbs float error in the product: 0.3*10 is
		// 2.999...6 and must still select ⌊0.3·10⌋ = 3 liars.
		k := int(b.Fraction*float64(n) + 1e-9)
		if k == 0 {
			// An entry that marks nobody is always a spec mistake — the
			// author asked for liars and got a silent no-op.
			return nil, fmt.Errorf("fraction = %v selects floor(%v*%d) = 0 processors; raise the fraction or use proc", b.Fraction, b.Fraction, n)
		}
		procs := make([]int, 0, k)
		for p := n - k; p < n; p++ {
			procs = append(procs, p)
		}
		return procs, nil
	default:
		return nil, fmt.Errorf("exactly one of proc and fraction is required (both unset)")
	}
}

// Topology selects one of the built-in topologies.
type Topology struct {
	Kind string  `json:"kind"` // line|ring|star|complete|grid|torus|tree|hypercube|random|ringOfCliques|barbell|twoRings|custom
	W    int     `json:"w,omitempty"`
	H    int     `json:"h,omitempty"`
	B    int     `json:"b,omitempty"` // tree branching
	D    int     `json:"d,omitempty"` // hypercube dimension
	P    float64 `json:"p,omitempty"` // random extra-edge probability
	// K is the clique size of ringOfCliques and barbell and the first
	// ring's size of twoRings.
	K int `json:"k,omitempty"`
	// Pairs lists explicit links for kind "custom".
	Pairs [][2]int `json:"pairs,omitempty"`
}

// LinkSpec is an assumption plus a delay model, optionally lossy.
type LinkSpec struct {
	Assumption AssumptionSpec `json:"assumption"`
	Delays     DelaySpec      `json:"delays"`
	// Loss drops each message on this link independently with the given
	// probability (wraps the delay model in sim.Lossy). Must be in [0, 1).
	Loss float64 `json:"loss,omitempty"`
}

// LinkOverride attaches a LinkSpec to one link.
type LinkOverride struct {
	P int `json:"p"`
	Q int `json:"q"`
	LinkSpec
}

// AssumptionSpec is the JSON form of a delay assumption.
type AssumptionSpec struct {
	Kind string `json:"kind"` // bounds|symmetricBounds|lowerOnly|noBounds|bias|and
	// bounds
	LBPQ float64 `json:"lbPQ,omitempty"`
	UBPQ float64 `json:"ubPQ,omitempty"` // 0 or negative means +Inf for lowerOnly-ish kinds; see Build
	LBQP float64 `json:"lbQP,omitempty"`
	UBQP float64 `json:"ubQP,omitempty"`
	// symmetricBounds
	LB float64 `json:"lb,omitempty"`
	UB float64 `json:"ub,omitempty"`
	// bias
	B float64 `json:"b,omitempty"`
	// and
	Parts []AssumptionSpec `json:"parts,omitempty"`
}

// Build converts the spec into an assumption value.
func (a AssumptionSpec) Build() (delay.Assumption, error) {
	switch a.Kind {
	case "bounds":
		return delay.NewBounds(delay.Range{LB: a.LBPQ, UB: orInf(a.UBPQ)}, delay.Range{LB: a.LBQP, UB: orInf(a.UBQP)})
	case "symmetricBounds":
		return delay.SymmetricBounds(a.LB, orInf(a.UB))
	case "lowerOnly":
		return delay.LowerOnly(a.LBPQ, a.LBQP)
	case "noBounds":
		return delay.NoBounds(), nil
	case "bias":
		return delay.NewRTTBias(a.B)
	case "and":
		parts := make([]delay.Assumption, 0, len(a.Parts))
		for _, ps := range a.Parts {
			p, err := ps.Build()
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		return delay.NewIntersect(parts...)
	default:
		return nil, fmt.Errorf("scenario: unknown assumption kind %q", a.Kind)
	}
}

// orInf maps the JSON-friendly sentinel 0 to +Inf for upper bounds (an
// upper bound of exactly zero delay is useless in practice, so nothing of
// value is lost).
func orInf(ub float64) float64 {
	if ub <= 0 {
		return math.Inf(1)
	}
	return ub
}

// DelaySpec is the JSON form of a link delay model.
type DelaySpec struct {
	Kind string `json:"kind"` // symmetric|independent|biasWindow|congestion
	// symmetric
	Sampler *SamplerSpec `json:"sampler,omitempty"`
	// independent
	PQ *SamplerSpec `json:"pq,omitempty"`
	QP *SamplerSpec `json:"qp,omitempty"`
	// biasWindow
	Base  float64 `json:"base,omitempty"`
	Width float64 `json:"width,omitempty"`
	// congestion (wraps the inner spec with periodic episodes)
	Inner  *DelaySpec `json:"inner,omitempty"`
	Period float64    `json:"period,omitempty"`
	Duty   float64    `json:"duty,omitempty"`
	Surge  float64    `json:"surge,omitempty"`
	Phase  float64    `json:"phase,omitempty"`
}

// Build converts the spec into a link delay model.
func (d DelaySpec) Build() (sim.LinkDelays, error) {
	switch d.Kind {
	case "symmetric":
		if d.Sampler == nil {
			return nil, fmt.Errorf("scenario: symmetric delays need a sampler")
		}
		s, err := d.Sampler.Build()
		if err != nil {
			return nil, err
		}
		return sim.Symmetric(s), nil
	case "independent":
		if d.PQ == nil || d.QP == nil {
			return nil, fmt.Errorf("scenario: independent delays need pq and qp samplers")
		}
		pq, err := d.PQ.Build()
		if err != nil {
			return nil, err
		}
		qp, err := d.QP.Build()
		if err != nil {
			return nil, err
		}
		return sim.Independent{PQ: pq, QP: qp}, nil
	case "biasWindow":
		if d.Base < 0 || d.Width < 0 {
			return nil, fmt.Errorf("scenario: biasWindow base/width must be non-negative")
		}
		return sim.BiasWindow{Base: d.Base, Width: d.Width}, nil
	case "congestion":
		if d.Inner == nil {
			return nil, fmt.Errorf("scenario: congestion needs an inner delay spec")
		}
		if d.Period <= 0 || d.Duty < 0 || d.Duty > 1 || d.Surge < 0 {
			return nil, fmt.Errorf("scenario: congestion(period=%v, duty=%v, surge=%v) invalid", d.Period, d.Duty, d.Surge)
		}
		inner, err := d.Inner.Build()
		if err != nil {
			return nil, err
		}
		return sim.Congestion{Base: inner, Period: d.Period, Duty: d.Duty, Surge: d.Surge, Phase: d.Phase}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown delay kind %q", d.Kind)
	}
}

// SamplerSpec is the JSON form of a delay sampler.
type SamplerSpec struct {
	Kind string       `json:"kind"` // constant|uniform|shiftedExp|truncNormal|bimodal
	D    float64      `json:"d,omitempty"`
	Lo   float64      `json:"lo,omitempty"`
	Hi   float64      `json:"hi,omitempty"`
	Min  float64      `json:"min,omitempty"`
	Mean float64      `json:"mean,omitempty"`
	Mu   float64      `json:"mu,omitempty"`
	Sig  float64      `json:"sigma,omitempty"`
	A    *SamplerSpec `json:"a,omitempty"`
	B    *SamplerSpec `json:"b,omitempty"`
	PA   float64      `json:"pa,omitempty"`
}

// Build converts the spec into a sampler.
func (s SamplerSpec) Build() (sim.Sampler, error) {
	switch s.Kind {
	case "constant":
		if s.D < 0 {
			return nil, fmt.Errorf("scenario: constant delay %v negative", s.D)
		}
		return sim.Constant{D: s.D}, nil
	case "uniform":
		if s.Lo < 0 || s.Hi < s.Lo {
			return nil, fmt.Errorf("scenario: uniform range [%v,%v] invalid", s.Lo, s.Hi)
		}
		return sim.Uniform{Lo: s.Lo, Hi: s.Hi}, nil
	case "shiftedExp":
		if s.Min < 0 || s.Mean <= 0 {
			return nil, fmt.Errorf("scenario: shiftedExp(min=%v,mean=%v) invalid", s.Min, s.Mean)
		}
		return sim.ShiftedExp{Min: s.Min, Mean: s.Mean}, nil
	case "truncNormal":
		if s.Lo < 0 || s.Hi < s.Lo {
			return nil, fmt.Errorf("scenario: truncNormal window [%v,%v] invalid", s.Lo, s.Hi)
		}
		return sim.TruncNormal{Mu: s.Mu, Sigma: s.Sig, Lo: s.Lo, Hi: s.Hi}, nil
	case "bimodal":
		if s.A == nil || s.B == nil || s.PA < 0 || s.PA > 1 {
			return nil, fmt.Errorf("scenario: bimodal needs a, b and pa in [0,1]")
		}
		a, err := s.A.Build()
		if err != nil {
			return nil, err
		}
		b, err := s.B.Build()
		if err != nil {
			return nil, err
		}
		return sim.Bimodal{A: a, B: b, PA: s.PA}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown sampler kind %q", s.Kind)
	}
}

// ProtocolSpec selects the measurement protocol.
type ProtocolSpec struct {
	Kind    string  `json:"kind"` // burst|periodic|pingpong
	K       int     `json:"k,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	Period  float64 `json:"period,omitempty"`
	Count   int     `json:"count,omitempty"`
	Rounds  int     `json:"rounds,omitempty"`
	// Warmup < 0 selects the safe automatic warmup (start spread + 1).
	Warmup float64 `json:"warmup"`
}

// Built is the executable form of a scenario.
type Built struct {
	Starts  []float64
	Net     *sim.Network
	Links   []core.Link
	Factory sim.ProtocolFactory
	RunCfg  sim.RunConfig
}

// Materialize builds the topology's link set.
func (t Topology) Materialize(n int, rng *rand.Rand) ([]sim.Pair, error) {
	switch t.Kind {
	case "line":
		return sim.Line(n), nil
	case "ring":
		return sim.Ring(n), nil
	case "star":
		return sim.Star(n), nil
	case "complete":
		return sim.Complete(n), nil
	case "grid":
		if t.W*t.H != n {
			return nil, fmt.Errorf("scenario: grid %dx%d does not cover %d processors", t.W, t.H, n)
		}
		return sim.Grid(t.W, t.H), nil
	case "torus":
		if t.W*t.H != n {
			return nil, fmt.Errorf("scenario: torus %dx%d does not cover %d processors", t.W, t.H, n)
		}
		return sim.Torus(t.W, t.H), nil
	case "tree":
		b := t.B
		if b == 0 {
			b = 2
		}
		return sim.Tree(n, b), nil
	case "hypercube":
		if 1<<t.D != n {
			return nil, fmt.Errorf("scenario: hypercube dim %d does not cover %d processors", t.D, n)
		}
		return sim.Hypercube(t.D), nil
	case "random":
		return sim.RandomConnected(rng, n, t.P), nil
	case "ringOfCliques":
		if t.K < 2 || n%t.K != 0 {
			return nil, fmt.Errorf("scenario: ringOfCliques clique size %d does not divide %d processors into cliques of 2 or more", t.K, n)
		}
		return sim.RingOfCliques(n/t.K, t.K), nil
	case "barbell":
		if t.K < 2 || 2*t.K > n {
			return nil, fmt.Errorf("scenario: barbell clique size %d outside [2, %d]", t.K, n/2)
		}
		return sim.Barbell(n, t.K), nil
	case "twoRings":
		if t.K < 2 || t.K > n-2 {
			return nil, fmt.Errorf("scenario: twoRings first ring size %d outside [2, %d]", t.K, n-2)
		}
		return sim.TwoRings(n, t.K), nil
	case "custom":
		pairs := make([]sim.Pair, len(t.Pairs))
		for i, e := range t.Pairs {
			pairs[i] = sim.Pair{P: e[0], Q: e[1]}
		}
		return pairs, nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

// Build validates and materializes the scenario.
func (s *Scenario) Build() (*Built, error) {
	if s.Processors < 1 {
		return nil, fmt.Errorf("scenario: processors = %d, want >= 1", s.Processors)
	}
	// One source seeded with s.Seed draws the starts (unless pinned), a
	// random topology, then the run seed. It is seeded only when something
	// is drawn before the run seed: seeding costs about 13 µs, more than
	// the rest of a small build.
	var rng *rand.Rand
	if len(s.Starts) == 0 || s.Topology.Kind == "random" {
		rng = rand.New(rand.NewSource(s.Seed))
	}
	starts := s.Starts
	if len(starts) == 0 {
		spread := s.StartSpread
		if spread == 0 {
			spread = 1
		}
		starts = sim.UniformStarts(rng, s.Processors, spread)
	}
	if len(starts) != s.Processors {
		return nil, fmt.Errorf("scenario: %d starts for %d processors", len(starts), s.Processors)
	}
	pairs, err := s.Topology.Materialize(s.Processors, rng)
	if err != nil {
		return nil, err
	}
	if err := sim.Validate(s.Processors, pairs); err != nil {
		return nil, err
	}

	// Resolve each topology link's spec: the default or its override.
	at := make(map[sim.Pair]int, len(pairs))
	specs := make([]*LinkSpec, len(pairs))
	for i, e := range pairs {
		at[canon(e)] = i
		specs[i] = s.DefaultLink
	}
	for j := range s.Links {
		o := &s.Links[j]
		i, ok := at[canon(sim.Pair{P: o.P, Q: o.Q})]
		if !ok {
			return nil, fmt.Errorf("scenario: link override (%d,%d) not in topology", o.P, o.Q)
		}
		specs[i] = &o.LinkSpec
	}
	missing := 0
	for _, spec := range specs {
		if spec == nil {
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("scenario: %d of %d links lack a spec (set defaultLink)", missing, len(pairs))
	}

	// Consecutive links with the same spec share its built assumption and
	// delay model, both immutable values.
	delays := make([]sim.LinkDelays, len(pairs))
	links := make([]core.Link, len(pairs))
	var (
		last *LinkSpec
		a    delay.Assumption
		ld   sim.LinkDelays
	)
	for i, e := range pairs {
		c := canon(e)
		if spec := specs[i]; spec != last {
			if a, err = spec.Assumption.Build(); err != nil {
				return nil, fmt.Errorf("scenario: link (%d,%d): %w", c.P, c.Q, err)
			}
			if ld, err = spec.Delays.Build(); err != nil {
				return nil, fmt.Errorf("scenario: link (%d,%d): %w", c.P, c.Q, err)
			}
			if spec.Loss != 0 {
				if spec.Loss < 0 || spec.Loss >= 1 {
					return nil, fmt.Errorf("scenario: link (%d,%d): loss %v outside [0,1)", c.P, c.Q, spec.Loss)
				}
				ld = sim.Lossy{Inner: ld, P: spec.Loss}
			}
			last = spec
		}
		delays[i] = ld
		links[i] = core.Link{P: model.ProcID(c.P), Q: model.ProcID(c.Q), A: a}
	}

	net, err := sim.NewNetwork(starts, pairs, func(p sim.Pair) sim.LinkDelays { return delays[at[p]] })
	if err != nil {
		return nil, err
	}

	factory, err := s.Protocol.factory(starts)
	if err != nil {
		return nil, err
	}
	faults, err := s.Faults.Build(s.Processors)
	if err != nil {
		return nil, err
	}
	if err := faults.Validate(s.Processors); err != nil {
		return nil, err
	}
	var runSeed int64
	if rng != nil {
		runSeed = rng.Int63()
	} else {
		runSeed = firstDraw(s.Seed)
	}
	return &Built{
		Starts:  append([]float64(nil), starts...),
		Net:     net,
		Links:   links,
		Factory: factory,
		RunCfg:  sim.RunConfig{Seed: runSeed, Faults: faults},
	}, nil
}

// lastFirstDraw holds firstDraw's last seed and draw.
var lastFirstDraw atomic.Pointer[[2]int64]

// firstDraw is the first Int63 of a math/rand source seeded with seed,
// remembered for the last seed asked: the builds that draw nothing else
// usually share one seed.
func firstDraw(seed int64) int64 {
	if c := lastFirstDraw.Load(); c != nil && c[0] == seed {
		return c[1]
	}
	d := rand.New(rand.NewSource(seed)).Int63()
	lastFirstDraw.Store(&[2]int64{seed, d})
	return d
}

func (p ProtocolSpec) factory(starts []float64) (sim.ProtocolFactory, error) {
	warmup := p.Warmup
	if warmup < 0 {
		warmup = sim.SafeWarmup(starts) + 1
	}
	switch p.Kind {
	case "burst":
		k := p.K
		if k == 0 {
			k = 1
		}
		return sim.NewBurstFactory(k, p.Spacing, warmup), nil
	case "periodic":
		if p.Period <= 0 || p.Count <= 0 {
			return nil, fmt.Errorf("scenario: periodic needs positive period and count")
		}
		return sim.NewPeriodicFactory(p.Period, p.Count, warmup), nil
	case "pingpong":
		if p.Rounds <= 0 {
			return nil, fmt.Errorf("scenario: pingpong needs positive rounds")
		}
		return sim.NewPingPongFactory(p.Rounds, warmup), nil
	default:
		return nil, fmt.Errorf("scenario: unknown protocol kind %q", p.Kind)
	}
}

func canon(p sim.Pair) sim.Pair {
	if p.P > p.Q {
		return sim.Pair{P: p.Q, Q: p.P}
	}
	return p
}

// Parse decodes a scenario from JSON.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return &s, nil
}

// Encode renders the scenario as indented JSON.
func (s *Scenario) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
