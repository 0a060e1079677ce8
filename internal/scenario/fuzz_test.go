package scenario

import (
	"math"
	"testing"

	"clocksync/internal/sim"
)

// FuzzParseAndBuild checks that arbitrary scenario JSON never panics the
// parser, the builder or the simulator: every input either builds or
// fails with an error, and a small built scenario runs (an error is fine,
// a panic is not), so the composed link models are sampled too.
func FuzzParseAndBuild(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"processors": 2, "topology": {"kind": "ring"}, "protocol": {"kind": "burst", "warmup": -1}}`,
		`{"processors": 4, "seed": 7, "topology": {"kind": "grid", "w": 2, "h": 2},
		  "defaultLink": {"assumption": {"kind": "noBounds"},
		                  "delays": {"kind": "symmetric", "sampler": {"kind": "constant", "d": 0.1}}},
		  "protocol": {"kind": "pingpong", "rounds": 1, "warmup": -1}}`,
		`{"processors": 3, "topology": {"kind": "custom", "pairs": [[0,1],[1,2]]},
		  "defaultLink": {"assumption": {"kind": "and", "parts": [{"kind":"bias","b":0.1},{"kind":"noBounds"}]},
		                  "delays": {"kind": "congestion", "period": 1, "duty": 0.5, "surge": 0.2,
		                             "inner": {"kind": "biasWindow", "base": 0.1, "width": 0.05}}},
		  "protocol": {"kind": "periodic", "period": 0.5, "count": 2, "warmup": -1}}`,
		`{"processors": 6, "topology": {"kind": "ringOfCliques", "k": 3},
		  "defaultLink": {"assumption": {"kind": "noBounds"},
		                  "delays": {"kind": "symmetric", "sampler": {"kind": "constant", "d": 0.1}}},
		  "protocol": {"kind": "burst", "warmup": -1}}`,
		`{"processors": 7, "topology": {"kind": "barbell", "k": 2},
		  "defaultLink": {"assumption": {"kind": "noBounds"},
		                  "delays": {"kind": "symmetric", "sampler": {"kind": "constant", "d": 0.1}}},
		  "protocol": {"kind": "burst", "warmup": -1}}`,
		`{"processors": 6, "topology": {"kind": "twoRings", "k": 3},
		  "defaultLink": {"assumption": {"kind": "noBounds"},
		                  "delays": {"kind": "symmetric", "sampler": {"kind": "constant", "d": 0.1}}},
		  "protocol": {"kind": "burst", "warmup": -1}}`,
		`{"processors": -1}`,
		`{"processors": 2, "starts": [0], "topology": {"kind": "line"}, "protocol": {"kind": "burst", "warmup": -1}}`,
		`{"processors": 3, "seed": 5, "topology": {"kind": "ring"},
		  "defaultLink": {"assumption": {"kind": "noBounds"}, "loss": 0.2,
		                  "delays": {"kind": "congestion", "period": 1, "duty": 0.3, "surge": 0.2,
		                             "inner": {"kind": "congestion", "period": 0.7, "duty": 0.5, "surge": 0.4,
		                                       "inner": {"kind": "independent",
		                                                 "pq": {"kind": "uniform", "lo": 0.01, "hi": 0.05},
		                                                 "qp": {"kind": "shiftedExp", "min": 0.02, "mean": 0.01}}}}},
		  "protocol": {"kind": "periodic", "period": 0.25, "count": 8, "warmup": -1}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return // malformed JSON: fine
		}
		// Cap sizes so the fuzzer cannot allocate absurd networks.
		if sc.Processors > 64 || len(sc.Links) > 256 || len(sc.Topology.Pairs) > 256 {
			return
		}
		built, err := sc.Build()
		if err != nil {
			return // invalid scenario: fine
		}
		if built.Net.N() != sc.Processors {
			t.Fatalf("built network has %d processors, scenario says %d", built.Net.N(), sc.Processors)
		}
		// Run only small scenarios, under an event cap, so one input
		// stays cheap.
		p := sc.Protocol
		if sc.Processors > 16 || p.K > 64 || p.Count > 64 || p.Rounds > 64 {
			return
		}
		built.RunCfg.MaxEvents = 1 << 16
		_, _ = sim.Run(built.Net, built.Factory, built.RunCfg)
	})
}

// TestNestedCongestionScenario builds a congestion inside a congestion
// from JSON and runs it: the outer model is never congested (duty 0) and
// the inner one always is (duty 1), so the inner surges must reach the
// delivered delays.
func TestNestedCongestionScenario(t *testing.T) {
	sc, err := Parse([]byte(`{"processors": 2, "seed": 3, "topology": {"kind": "line"},
	  "defaultLink": {"assumption": {"kind": "noBounds"},
	                  "delays": {"kind": "congestion", "period": 1, "duty": 0, "surge": 3,
	                             "inner": {"kind": "congestion", "period": 1, "duty": 1, "surge": 5,
	                                       "inner": {"kind": "symmetric", "sampler": {"kind": "constant", "d": 0.1}}}}},
	  "protocol": {"kind": "periodic", "period": 0.1, "count": 20, "warmup": -1}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	if len(msgs) != 40 {
		t.Fatalf("delivered %d messages, want 40", len(msgs))
	}
	hi := 0.0
	for _, m := range msgs {
		d := m.Delay(exec)
		if d < 0.1-1e-9 || d > 5.1+1e-9 {
			t.Fatalf("delay %v outside the inner range [0.1, 5.1]", d)
		}
		hi = math.Max(hi, d)
	}
	if hi < 2 {
		t.Errorf("largest of 40 delays %v: the inner surges are lost", hi)
	}
}

func TestCongestionDelaySpec(t *testing.T) {
	s := validScenario()
	s.DefaultLink.Delays = DelaySpec{
		Kind:   "congestion",
		Inner:  &DelaySpec{Kind: "symmetric", Sampler: &SamplerSpec{Kind: "uniform", Lo: 0.05, Hi: 0.1}},
		Period: 1, Duty: 0.4, Surge: 0.3,
	}
	// Keep the declared assumption sound for the surged delays.
	s.DefaultLink.Assumption = AssumptionSpec{Kind: "symmetricBounds", LB: 0.05, UB: 0.45}
	if _, err := s.Build(); err != nil {
		t.Fatalf("Build(congestion): %v", err)
	}

	bad := DelaySpec{Kind: "congestion", Period: 1}
	if _, err := bad.Build(); err == nil {
		t.Error("congestion without inner accepted")
	}
	bad2 := DelaySpec{Kind: "congestion", Inner: &DelaySpec{Kind: "biasWindow", Base: 0.1, Width: 0.01}, Period: -1}
	if _, err := bad2.Build(); err == nil {
		t.Error("negative period accepted")
	}
}
