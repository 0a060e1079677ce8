package scenario

import (
	"testing"
)

// FuzzParseAndBuild checks that arbitrary scenario JSON never panics the
// parser/builder: every input either builds or fails with an error.
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
	})
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
