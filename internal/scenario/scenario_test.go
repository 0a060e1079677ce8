package scenario

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

func validScenario() *Scenario {
	return &Scenario{
		Processors:  4,
		Seed:        7,
		StartSpread: 2,
		Topology:    Topology{Kind: "ring"},
		DefaultLink: &LinkSpec{
			Assumption: AssumptionSpec{Kind: "symmetricBounds", LB: 0.05, UB: 0.2},
			Delays:     DelaySpec{Kind: "symmetric", Sampler: &SamplerSpec{Kind: "uniform", Lo: 0.05, Hi: 0.2}},
		},
		Protocol: ProtocolSpec{Kind: "burst", K: 3, Spacing: 0.01, Warmup: -1},
	}
}

func TestBuildAndRunEndToEnd(t *testing.T) {
	b, err := validScenario().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	exec, err := sim.Run(b.Net, b.Factory, b.RunCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	res, err := core.SynchronizeSystem(4, b.Links, tab, core.DefaultMLSOptions(), core.Options{})
	if err != nil {
		t.Fatalf("SynchronizeSystem: %v", err)
	}
	if math.IsInf(res.Precision, 1) {
		t.Error("precision infinite on connected scenario")
	}
	rho, err := core.Rho(b.Starts, res.Corrections)
	if err != nil {
		t.Fatalf("Rho: %v", err)
	}
	if rho > res.Precision+1e-9 {
		t.Errorf("rho %v exceeds precision %v", rho, res.Precision)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validScenario()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Processors != s.Processors || parsed.Topology.Kind != s.Topology.Kind {
		t.Errorf("round trip mismatch: %+v", parsed)
	}
	if _, err := parsed.Build(); err != nil {
		t.Errorf("parsed scenario does not build: %v", err)
	}
}

func TestParseInvalidJSON(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Error("invalid JSON accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no processors", func(s *Scenario) { s.Processors = 0 }},
		{"bad topology", func(s *Scenario) { s.Topology.Kind = "moebius" }},
		{"starts length", func(s *Scenario) { s.Starts = []float64{0} }},
		{"no default link", func(s *Scenario) { s.DefaultLink = nil }},
		{"bad assumption", func(s *Scenario) { s.DefaultLink.Assumption.Kind = "psychic" }},
		{"bad sampler", func(s *Scenario) { s.DefaultLink.Delays.Sampler.Kind = "quantum" }},
		{"bad protocol", func(s *Scenario) { s.Protocol.Kind = "telepathy" }},
		{"grid mismatch", func(s *Scenario) { s.Topology = Topology{Kind: "grid", W: 3, H: 3} }},
		// The validScenario has 4 processors.
		{"ringOfCliques without k", func(s *Scenario) { s.Topology = Topology{Kind: "ringOfCliques"} }},
		{"ringOfCliques k=1", func(s *Scenario) { s.Topology = Topology{Kind: "ringOfCliques", K: 1} }},
		{"ringOfCliques k not dividing n", func(s *Scenario) { s.Topology = Topology{Kind: "ringOfCliques", K: 3} }},
		{"ringOfCliques negative k", func(s *Scenario) { s.Topology = Topology{Kind: "ringOfCliques", K: -2} }},
		{"barbell k=1", func(s *Scenario) { s.Topology = Topology{Kind: "barbell", K: 1} }},
		{"barbell cliques overlap", func(s *Scenario) { s.Topology = Topology{Kind: "barbell", K: 3} }},
		{"twoRings k=1", func(s *Scenario) { s.Topology = Topology{Kind: "twoRings", K: 1} }},
		{"twoRings second ring too small", func(s *Scenario) { s.Topology = Topology{Kind: "twoRings", K: 3} }},
		{"override off topology", func(s *Scenario) {
			s.Links = []LinkOverride{{P: 0, Q: 2, LinkSpec: *s.DefaultLink}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validScenario()
			tt.mutate(s)
			if _, err := s.Build(); err == nil {
				t.Error("Build accepted invalid scenario")
			}
		})
	}
}

func TestLinkOverride(t *testing.T) {
	s := validScenario()
	s.Links = []LinkOverride{{
		P: 0, Q: 1,
		LinkSpec: LinkSpec{
			Assumption: AssumptionSpec{Kind: "bias", B: 0.1},
			Delays:     DelaySpec{Kind: "biasWindow", Base: 0.2, Width: 0.05},
		},
	}}
	b, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	found := false
	for _, l := range b.Links {
		if l.P == 0 && l.Q == 1 {
			if !strings.Contains(l.A.String(), "bias") {
				t.Errorf("override not applied: %v", l.A)
			}
			found = true
		}
	}
	if !found {
		t.Error("link (0,1) missing")
	}
}

func TestAssumptionSpecKinds(t *testing.T) {
	tests := []struct {
		name string
		spec AssumptionSpec
		want string
	}{
		{"bounds", AssumptionSpec{Kind: "bounds", LBPQ: 0.1, UBPQ: 0.3, LBQP: 0.05, UBQP: 0.2}, "bounds"},
		{"bounds inf ub", AssumptionSpec{Kind: "bounds", LBPQ: 0.1}, "inf"},
		{"lowerOnly", AssumptionSpec{Kind: "lowerOnly", LBPQ: 0.1, LBQP: 0.2}, "inf"},
		{"noBounds", AssumptionSpec{Kind: "noBounds"}, "bounds"},
		{"bias", AssumptionSpec{Kind: "bias", B: 0.5}, "bias"},
		{"and", AssumptionSpec{Kind: "and", Parts: []AssumptionSpec{{Kind: "noBounds"}, {Kind: "bias", B: 1}}}, "and"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := tt.spec.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if !strings.Contains(a.String(), tt.want) {
				t.Errorf("assumption %v does not mention %q", a, tt.want)
			}
		})
	}
}

func TestSamplerSpecKinds(t *testing.T) {
	ok := []SamplerSpec{
		{Kind: "constant", D: 1},
		{Kind: "uniform", Lo: 0, Hi: 1},
		{Kind: "shiftedExp", Min: 0.1, Mean: 0.2},
		{Kind: "truncNormal", Mu: 1, Sig: 0.1, Lo: 0.5, Hi: 1.5},
		{Kind: "bimodal", A: &SamplerSpec{Kind: "constant", D: 1}, B: &SamplerSpec{Kind: "constant", D: 2}, PA: 0.5},
	}
	for _, spec := range ok {
		if _, err := spec.Build(); err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
		}
	}
	bad := []SamplerSpec{
		{Kind: "constant", D: -1},
		{Kind: "uniform", Lo: 1, Hi: 0},
		{Kind: "shiftedExp", Min: 0.1},
		{Kind: "bimodal", PA: 2},
	}
	for _, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Errorf("%s: invalid spec accepted", spec.Kind)
		}
	}
}

func TestTopologyKinds(t *testing.T) {
	tests := []struct {
		topo Topology
		n    int
		want int
	}{
		{Topology{Kind: "line"}, 4, 3},
		{Topology{Kind: "star"}, 4, 3},
		{Topology{Kind: "complete"}, 4, 6},
		{Topology{Kind: "grid", W: 2, H: 2}, 4, 4},
		{Topology{Kind: "torus", W: 3, H: 3}, 9, 18},
		{Topology{Kind: "tree", B: 2}, 7, 6},
		{Topology{Kind: "hypercube", D: 2}, 4, 4},
		{Topology{Kind: "ringOfCliques", K: 3}, 9, 12},
		{Topology{Kind: "barbell", K: 3}, 8, 9},
		{Topology{Kind: "twoRings", K: 3}, 7, 7},
		{Topology{Kind: "custom", Pairs: [][2]int{{0, 1}, {1, 2}}}, 3, 2},
	}
	for _, tt := range tests {
		t.Run(tt.topo.Kind, func(t *testing.T) {
			s := validScenario()
			s.Processors = tt.n
			s.Topology = tt.topo
			b, err := s.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := len(b.Links); got != tt.want {
				t.Errorf("links = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestProtocolSpecKinds(t *testing.T) {
	for _, p := range []ProtocolSpec{
		{Kind: "burst", K: 2, Warmup: -1},
		{Kind: "periodic", Period: 0.5, Count: 3, Warmup: -1},
		{Kind: "pingpong", Rounds: 2, Warmup: -1},
	} {
		s := validScenario()
		s.Protocol = p
		b, err := s.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", p.Kind, err)
		}
		if _, err := sim.Run(b.Net, b.Factory, b.RunCfg); err != nil {
			t.Errorf("%s: Run: %v", p.Kind, err)
		}
	}
}

// TestFaultsSpecBuild: the faults section materializes into a simulator
// schedule attached to the run config, with the open-until sentinel mapped
// to forever.
func TestFaultsSpecBuild(t *testing.T) {
	s := validScenario()
	s.Faults = &FaultsSpec{
		Crashes:    []CrashSpec{{Proc: 2, At: 1.5}},
		Partitions: []PartitionSpec{{P: 0, Q: 1, From: 0.5}, {P: 1, Q: 2, From: 0, Until: 2}},
		Loss:       0.1,
	}
	b, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	f := b.RunCfg.Faults
	if f == nil {
		t.Fatal("faults not attached to the run config")
	}
	if len(f.Crashes) != 1 || f.Crashes[0].Proc != 2 || f.Crashes[0].At != 1.5 {
		t.Errorf("crashes = %+v", f.Crashes)
	}
	if len(f.Partitions) != 2 || !math.IsInf(f.Partitions[0].Until, 1) || f.Partitions[1].Until != 2 {
		t.Errorf("partitions = %+v", f.Partitions)
	}
	if f.Loss != 0.1 {
		t.Errorf("loss = %v", f.Loss)
	}
	if _, err := sim.Run(b.Net, b.Factory, b.RunCfg); err != nil {
		t.Errorf("faulty run: %v", err)
	}
}

// TestFaultsSpecRejected: invalid schedules are caught at Build time.
func TestFaultsSpecRejected(t *testing.T) {
	for name, f := range map[string]*FaultsSpec{
		"crash out of range": {Crashes: []CrashSpec{{Proc: 9, At: 1}}},
		"partition self":     {Partitions: []PartitionSpec{{P: 1, Q: 1, From: 0, Until: 1}}},
		"loss one":           {Loss: 1},
	} {
		s := validScenario()
		s.Faults = f
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build accepted %+v", name, f)
		}
	}
}

// TestFaultsJSONRoundTrip: the faults section survives encode/parse.
func TestFaultsJSONRoundTrip(t *testing.T) {
	s := validScenario()
	s.Faults = &FaultsSpec{Crashes: []CrashSpec{{Proc: 1, At: 2}}, Loss: 0.25}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || back.Faults.Loss != 0.25 || len(back.Faults.Crashes) != 1 {
		t.Errorf("faults did not round-trip: %+v", back.Faults)
	}
}

// TestLinkLoss: a per-link loss probability wraps the delay model in the
// lossy adapter; invalid probabilities are rejected.
func TestLinkLoss(t *testing.T) {
	s := validScenario()
	s.DefaultLink.Loss = 0.2
	b, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ld := b.Net.Delays(0, 1)
	lossy, ok := ld.(sim.Lossy)
	if !ok {
		t.Fatalf("link delays are %T, want sim.Lossy", ld)
	}
	if lossy.P != 0.2 {
		t.Errorf("lossy P = %v, want 0.2", lossy.P)
	}

	s.DefaultLink.Loss = 1.0
	if _, err := s.Build(); err == nil {
		t.Error("loss = 1.0 accepted")
	}
	s.DefaultLink.Loss = -0.1
	if _, err := s.Build(); err == nil {
		t.Error("negative loss accepted")
	}
}

// TestByzantineJSONRoundTrip: the byzantine faults section survives
// encode/parse and builds the expected simulator entries.
func TestByzantineJSONRoundTrip(t *testing.T) {
	liar := 2
	s := validScenario()
	s.Faults = &FaultsSpec{Byzantine: []ByzantineSpec{
		{Proc: &liar, Strategy: "skew", Magnitude: 0.25, Seed: 11},
		{Fraction: 0.5, Strategy: "deflate", Magnitude: 0.1},
	}}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || len(back.Faults.Byzantine) != 2 {
		t.Fatalf("byzantine entries did not round-trip: %+v", back.Faults)
	}
	got := back.Faults.Byzantine
	if got[0].Proc == nil || *got[0].Proc != liar || got[0].Strategy != "skew" ||
		got[0].Magnitude != 0.25 || got[0].Seed != 11 {
		t.Errorf("entry 0 round-tripped to %+v", got[0])
	}
	if got[1].Proc != nil || got[1].Fraction != 0.5 || got[1].Strategy != "deflate" {
		t.Errorf("entry 1 round-tripped to %+v", got[1])
	}

	faults, err := back.Faults.Build(s.Processors)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// One explicit liar plus floor(0.5*4)=2 highest-numbered processors.
	want := []sim.Byzantine{
		{Proc: 2, Strategy: sim.ByzSkew, Magnitude: 0.25, Seed: 11},
		{Proc: 2, Strategy: sim.ByzDeflate, Magnitude: 0.1},
		{Proc: 3, Strategy: sim.ByzDeflate, Magnitude: 0.1},
	}
	if len(faults.Byzantine) != len(want) {
		t.Fatalf("built %d byzantine entries, want %d: %+v", len(faults.Byzantine), len(want), faults.Byzantine)
	}
	for i := range want {
		if faults.Byzantine[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, faults.Byzantine[i], want[i])
		}
	}
}

// TestByzantineFractionTruncation: ⌊fraction·n⌋ must not lose a liar to
// float error — 0.3*10 is 2.999...6 in binary and naive int() gives 2.
func TestByzantineFractionTruncation(t *testing.T) {
	for _, tt := range []struct {
		fraction float64
		n, want  int
	}{
		{0.3, 10, 3},
		{0.7, 10, 7}, // 6.999...
		{0.5, 4, 2},
	} {
		spec := ByzantineSpec{Fraction: tt.fraction, Strategy: "inflate"}
		procs, err := spec.procs(tt.n)
		if err != nil {
			t.Fatalf("fraction %v n %d: %v", tt.fraction, tt.n, err)
		}
		if len(procs) != tt.want {
			t.Errorf("fraction %v n %d selected %d liars, want %d", tt.fraction, tt.n, len(procs), tt.want)
		}
	}
	// ⌊0.1·3⌋ = 0: an entry that selects nobody is rejected, not a silent
	// no-op.
	spec := ByzantineSpec{Fraction: 0.1, Strategy: "inflate"}
	if _, err := spec.procs(3); err == nil {
		t.Error("fraction selecting zero processors accepted")
	}
}

// TestByzantineSpecValidation: malformed byzantine entries are rejected
// with descriptive errors.
func TestByzantineSpecValidation(t *testing.T) {
	neg, high, ok := -1, 9, 1
	for name, f := range map[string]*FaultsSpec{
		"unknown strategy":          {Byzantine: []ByzantineSpec{{Proc: &ok, Strategy: "liar"}}},
		"proc negative":             {Byzantine: []ByzantineSpec{{Proc: &neg, Strategy: "inflate"}}},
		"proc out of range":         {Byzantine: []ByzantineSpec{{Proc: &high, Strategy: "inflate"}}},
		"fraction above one":        {Byzantine: []ByzantineSpec{{Fraction: 1.5, Strategy: "inflate"}}},
		"fraction negative":         {Byzantine: []ByzantineSpec{{Fraction: -0.5, Strategy: "inflate"}}},
		"neither proc nor fraction": {Byzantine: []ByzantineSpec{{Strategy: "inflate"}}},
		"both proc and fraction":    {Byzantine: []ByzantineSpec{{Proc: &ok, Fraction: 0.5, Strategy: "inflate"}}},
		"negative magnitude":        {Byzantine: []ByzantineSpec{{Proc: &ok, Strategy: "inflate", Magnitude: -1}}},
	} {
		s := validScenario()
		s.Faults = f
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build accepted %+v", name, f.Byzantine)
		}
	}
}

// TestFaultValidationFieldPaths: every malformed faults entry is rejected
// with an error naming the exact JSON field path and offending value —
// the contract generated (fuzzer-emitted) scenarios rely on.
func TestFaultValidationFieldPaths(t *testing.T) {
	two := 2
	for name, tt := range map[string]struct {
		faults   *FaultsSpec
		wantPath string
	}{
		"loss out of range": {
			&FaultsSpec{Loss: 1.5}, "faults.loss = 1.5",
		},
		"loss NaN": {
			&FaultsSpec{Loss: math.NaN()}, "faults.loss",
		},
		"crash proc range": {
			&FaultsSpec{Crashes: []CrashSpec{{Proc: 0, At: 1}, {Proc: 9, At: 1}}}, "faults.crashes[1].proc = 9",
		},
		"crash at NaN": {
			&FaultsSpec{Crashes: []CrashSpec{{Proc: 1, At: math.NaN()}}}, "faults.crashes[0].at",
		},
		"partition endpoint range": {
			&FaultsSpec{Partitions: []PartitionSpec{{P: 0, Q: 17}}}, "faults.partitions[0] = (0, 17)",
		},
		"partition self": {
			&FaultsSpec{Partitions: []PartitionSpec{{P: 2, Q: 2}}}, "faults.partitions[0] = (2, 2)",
		},
		"byzantine strategy": {
			&FaultsSpec{Byzantine: []ByzantineSpec{{Proc: &two, Strategy: "nope"}}}, `faults.byzantine[0].strategy = "nope"`,
		},
		"byzantine magnitude": {
			&FaultsSpec{Byzantine: []ByzantineSpec{{Proc: &two, Strategy: "inflate", Magnitude: -2}}}, "faults.byzantine[0].magnitude = -2",
		},
		"byzantine neither": {
			&FaultsSpec{Byzantine: []ByzantineSpec{{Strategy: "inflate"}}}, "faults.byzantine[0]",
		},
		"byzantine fraction selects nobody": {
			&FaultsSpec{Byzantine: []ByzantineSpec{{Fraction: 0.1, Strategy: "inflate"}}}, "faults.byzantine[0]",
		},
	} {
		s := validScenario()
		s.Faults = tt.faults
		_, err := s.Build()
		if err == nil {
			t.Errorf("%s: accepted %+v", name, tt.faults)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantPath) {
			t.Errorf("%s: error %q does not name %q", name, err, tt.wantPath)
		}
	}
}

// TestFaultValidationErrorsRoundTrip: the same malformed entries, pushed
// through JSON encode/parse first — the errors must be identical, so a
// reproducer file diagnoses exactly like the in-memory scenario.
func TestFaultValidationErrorsRoundTrip(t *testing.T) {
	s := validScenario()
	s.Faults = &FaultsSpec{Byzantine: []ByzantineSpec{{Fraction: 0.1, Strategy: "inflate"}}}
	_, direct := s.Build()
	if direct == nil {
		t.Fatal("empty-selection byzantine entry accepted")
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	_, roundTripped := back.Build()
	if roundTripped == nil {
		t.Fatal("empty-selection byzantine entry accepted after round trip")
	}
	if direct.Error() != roundTripped.Error() {
		t.Errorf("error drifted across JSON round trip:\n direct: %v\n parsed: %v", direct, roundTripped)
	}
}

// TestCommentRoundTrip: the provenance comment survives encode/parse and
// has no effect on Build.
func TestCommentRoundTrip(t *testing.T) {
	s := validScenario()
	s.Comment = "promoted genfuzz golden: generator seed 42"
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Comment != s.Comment {
		t.Errorf("comment round-tripped to %q", back.Comment)
	}
	if _, err := back.Build(); err != nil {
		t.Errorf("comment affected Build: %v", err)
	}
	plain := validScenario()
	pb, err := plain.Build()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pb.RunCfg.Seed != cb.RunCfg.Seed {
		t.Error("comment perturbed the derived run seed")
	}
}

// TestRunSeedDrawOrder pins the run seed as the draw after the starts and
// a random topology, and as the source's first draw when nothing else is
// drawn, including when builds alternate between seeds.
func TestRunSeedDrawOrder(t *testing.T) {
	for _, seed := range []int64{7, 8, 7, 0, 7} {
		s := validScenario()
		s.Seed = seed
		pinned := *s
		pinned.Starts = []float64{0, 0.5, 1, 1.5}
		random := pinned
		random.Topology = Topology{Kind: "random", P: 0.5}

		rng := rand.New(rand.NewSource(seed))
		starts := sim.UniformStarts(rng, s.Processors, s.StartSpread)
		afterStarts := rng.Int63()
		rng = rand.New(rand.NewSource(seed))
		sim.RandomConnected(rng, s.Processors, 0.5)
		afterTopology := rng.Int63()
		first := rand.New(rand.NewSource(seed)).Int63()

		for _, c := range []struct {
			name string
			s    *Scenario
			want int64
		}{{"drawn starts", s, afterStarts}, {"pinned starts", &pinned, first}, {"random topology", &random, afterTopology}} {
			b, err := c.s.Build()
			if err != nil {
				t.Fatal(err)
			}
			if b.RunCfg.Seed != c.want {
				t.Errorf("seed %d, %s: run seed %d, want %d", seed, c.name, b.RunCfg.Seed, c.want)
			}
		}
		b, _ := s.Build()
		if !slices.Equal(b.Starts, starts) {
			t.Errorf("seed %d: starts %v, want %v", seed, b.Starts, starts)
		}
	}
}
