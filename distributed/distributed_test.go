package distributed_test

import (
	"math"
	"testing"

	"clocksync/distributed"
	"clocksync/internal/obs"
)

const scenarioJSON = `{
	"processors": 6,
	"seed": 23,
	"startSpread": 1.5,
	"topology": {"kind": "ring"},
	"defaultLink": {
		"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
		"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
	},
	"protocol": {"kind": "burst", "k": 1, "warmup": -1}
}`

func TestRunScenarioJSON(t *testing.T) {
	out, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{})
	if err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	if len(out.Corrections) != 6 {
		t.Fatalf("corrections = %d entries, want 6", len(out.Corrections))
	}
	if out.Corrections[0] != 0 {
		t.Errorf("leader correction = %v, want 0", out.Corrections[0])
	}
	if math.IsInf(out.Precision, 1) || out.Precision <= 0 {
		t.Errorf("precision = %v", out.Precision)
	}
	if out.Realized > out.Precision+1e-9 {
		t.Errorf("realized %v exceeds precision %v", out.Realized, out.Precision)
	}
	// Probes alone: 2 * 4 * 6 links = 48; floods add more.
	if out.Messages <= 48 {
		t.Errorf("messages = %d, want > 48 (floods missing?)", out.Messages)
	}
}

func TestRunScenarioJSONOptions(t *testing.T) {
	out, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{
		Leader:   3,
		Probes:   2,
		Centered: true,
	})
	if err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	if out.Corrections[3] != 0 {
		t.Errorf("leader correction = %v, want 0", out.Corrections[3])
	}
}

func TestRunScenarioJSONErrors(t *testing.T) {
	if _, err := distributed.RunScenarioJSON([]byte("{"), distributed.Config{}); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := distributed.RunScenarioJSON([]byte(`{"processors":0,"topology":{"kind":"ring"},"protocol":{"kind":"burst","warmup":-1}}`), distributed.Config{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRunScenarioJSONGossip(t *testing.T) {
	leader, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{})
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	gossip, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{Gossip: true})
	if err != nil {
		t.Fatalf("gossip: %v", err)
	}
	if math.Abs(leader.Precision-gossip.Precision) > 1e-12 {
		t.Errorf("precision differs: %v vs %v", leader.Precision, gossip.Precision)
	}
	for p := range leader.Corrections {
		if math.Abs(leader.Corrections[p]-gossip.Corrections[p]) > 1e-12 {
			t.Errorf("correction p%d differs: %v vs %v", p, leader.Corrections[p], gossip.Corrections[p])
		}
	}
	if gossip.Messages >= leader.Messages {
		t.Errorf("gossip messages %d >= leader %d (no result flood expected)", gossip.Messages, leader.Messages)
	}
}

// TestConfigValidation: nonsensical parameters are rejected up front with
// clear errors instead of silently defaulting.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  distributed.Config
	}{
		{"negative probes", distributed.Config{Probes: -1}},
		{"negative spacing", distributed.Config{Spacing: -0.01}},
		{"NaN spacing", distributed.Config{Spacing: math.NaN()}},
		{"negative window", distributed.Config{Window: -1}},
		{"infinite window", distributed.Config{Window: math.Inf(1)}},
		{"negative report grace", distributed.Config{ReportGrace: -0.5}},
		{"NaN report grace", distributed.Config{ReportGrace: math.NaN()}},
		{"negative retries", distributed.Config{Retries: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := distributed.RunScenarioJSON([]byte(scenarioJSON), tc.cfg); err == nil {
				t.Errorf("invalid config %+v accepted", tc.cfg)
			}
		})
	}
}

const faultyScenarioJSON = `{
	"processors": 5,
	"seed": 31,
	"startSpread": 1,
	"topology": {"kind": "star"},
	"defaultLink": {
		"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
		"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
	},
	"protocol": {"kind": "burst", "k": 1, "warmup": -1},
	"faults": {"crashes": [{"proc": 4, "at": 0}]}
}`

// TestRunScenarioJSONWithFaults: a crash declared in the scenario's faults
// section produces a degraded outcome with the survivors synchronized.
func TestRunScenarioJSONWithFaults(t *testing.T) {
	out, err := distributed.RunScenarioJSON([]byte(faultyScenarioJSON), distributed.Config{
		ReportGrace: 1,
	})
	if err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	if !out.Degraded {
		t.Error("crashed processor did not degrade the outcome")
	}
	if len(out.Missing) != 1 || out.Missing[0] != 4 {
		t.Errorf("Missing = %v, want [4]", out.Missing)
	}
	if out.Applied[4] {
		t.Error("crashed p4 applied a correction")
	}
	for p := 0; p < 4; p++ {
		if !out.Applied[p] || !out.Synced[p] {
			t.Errorf("survivor p%d applied=%v synced=%v, want both", p, out.Applied[p], out.Synced[p])
		}
	}
	if out.Realized > out.Precision+1e-9 {
		t.Errorf("realized %v exceeds degraded precision %v", out.Realized, out.Precision)
	}
	// Pinned bit for bit: the discrepancy over the four survivors.
	if got := math.Float64bits(out.Realized); got != 0x3fa0291c40a976c8 {
		t.Errorf("realized = %v (%#x), want 0.031563647168452 (0x3fa0291c40a976c8)", out.Realized, got)
	}
}

// TestRunScenarioJSONTrace: a non-nil Trace collects the sync-round
// phase spans — the probe window and every compute sub-phase carry a
// positive duration; gossip mode records one compute per node.
func TestRunScenarioJSONTrace(t *testing.T) {
	tr := obs.NewTrace("leader")
	if _, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{Trace: tr}); err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	totals := map[string]float64{}
	for _, sp := range tr.Spans() {
		if sp.Seconds < 0 {
			t.Errorf("span %q on p%d has negative duration %v", sp.Phase, sp.Proc, sp.Seconds)
		}
		totals[sp.Phase] += sp.Seconds
	}
	for _, phase := range []string{"probe", "collect", "compute", "estimate", "karp_amax", "corrections"} {
		if totals[phase] <= 0 {
			t.Errorf("phase %q total %v, want > 0 (totals: %v)", phase, totals[phase], totals)
		}
	}

	gtr := obs.NewTrace("gossip")
	if _, err := distributed.RunScenarioJSON([]byte(scenarioJSON), distributed.Config{Gossip: true, Trace: gtr}); err != nil {
		t.Fatalf("gossip run: %v", err)
	}
	computes := 0
	for _, sp := range gtr.Spans() {
		if sp.Phase == "compute" {
			computes++
		}
	}
	if computes != 6 {
		t.Errorf("gossip trace has %d compute spans, want one per node (6)", computes)
	}
}
