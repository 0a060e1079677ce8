package clocksync

import (
	"math"
	"strings"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(0); err == nil {
		t.Error("zero-processor system accepted")
	}
	s, err := NewSystem(3)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if s.N() != 3 {
		t.Errorf("N = %d, want 3", s.N())
	}
}

func TestAddLinkValidation(t *testing.T) {
	s, err := NewSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink(0, 0, NoBounds()); err == nil {
		t.Error("self link accepted")
	}
	if err := s.AddLink(0, 5, NoBounds()); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := s.AddLink(0, 1, nil); err == nil {
		t.Error("nil assumption accepted")
	}
	if err := s.AddLink(0, 1, NoBounds()); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	if got := len(s.Links()); got != 1 {
		t.Errorf("Links() = %d entries, want 1", got)
	}
}

func TestAssumptionConstructors(t *testing.T) {
	if _, err := Bounds(0.1, 0.2, 0.1, Inf); err != nil {
		t.Errorf("Bounds: %v", err)
	}
	if _, err := Bounds(-1, 0.2, 0.1, 0.2); err == nil {
		t.Error("negative lower bound accepted")
	}
	if _, err := SymmetricBounds(0.1, 0.2); err != nil {
		t.Errorf("SymmetricBounds: %v", err)
	}
	if _, err := LowerBoundsOnly(0.1, 0.2); err != nil {
		t.Errorf("LowerBoundsOnly: %v", err)
	}
	if _, err := RTTBias(0.1); err != nil {
		t.Errorf("RTTBias: %v", err)
	}
	if _, err := RTTBias(-1); err == nil {
		t.Error("negative bias accepted")
	}
	b, err := Both(NoBounds(), MustSymmetricBounds(0, 1))
	if err != nil {
		t.Errorf("Both: %v", err)
	}
	if !strings.Contains(b.String(), "and") {
		t.Errorf("Both = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSymmetricBounds(2,1) did not panic")
		}
	}()
	MustSymmetricBounds(2, 1)
}

// TestSynchronizeQuickstart mirrors the package documentation example and
// checks the numbers end to end: two processors, symmetric delays, known
// bounds — the corrections recover the skew and the precision is (U-L)/2.
func TestSynchronizeQuickstart(t *testing.T) {
	const (
		lb, ub = 0.001, 0.005
		d      = (lb + ub) / 2 // actual symmetric delay
		skew   = 0.4           // S_1 - S_0
	)
	sys, err := NewSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLink(0, 1, MustSymmetricBounds(lb, ub)); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(2)
	// p0 sends at its clock 1.0; arrival at p1's clock = 1 + d - skew.
	if err := rec.Observe(0, 1, 1.0, 1.0+d-skew); err != nil {
		t.Fatal(err)
	}
	// p1 sends at its clock 1.0; arrival at p0's clock = 1 + d + skew.
	if err := rec.Observe(1, 0, 1.0, 1.0+d+skew); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Synchronize(rec)
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if want := (ub - lb) / 2; math.Abs(res.Precision-want) > 1e-12 {
		t.Errorf("Precision = %v, want %v", res.Precision, want)
	}
	disc, err := Discrepancy([]float64{0, skew}, res.Corrections)
	if err != nil {
		t.Fatal(err)
	}
	if disc > 1e-12 {
		t.Errorf("Discrepancy = %v, want 0 (corrections %v)", disc, res.Corrections)
	}
}

func TestSynchronizeDisconnected(t *testing.T) {
	sys, err := NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLink(0, 1, MustSymmetricBounds(0, 1)); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(3)
	if err := rec.Observe(0, 1, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := rec.Observe(1, 0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Synchronize(rec)
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if !math.IsInf(res.Precision, 1) {
		t.Errorf("Precision = %v, want +Inf (p2 unconstrained)", res.Precision)
	}
	if len(res.Components) != 2 {
		t.Errorf("Components = %v, want 2", res.Components)
	}
}

func TestSynchronizeOptionsAndErrors(t *testing.T) {
	sys, err := NewSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLink(0, 1, MustSymmetricBounds(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Synchronize(nil); err == nil {
		t.Error("nil recorder accepted")
	}
	if _, err := sys.Synchronize(NewRecorder(5)); err == nil {
		t.Error("size-mismatched recorder accepted")
	}
	rec := NewRecorder(2)
	if err := rec.Observe(0, 1, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := rec.Observe(1, 0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := rec.Observed(0, 1); got != 1 {
		t.Errorf("Observed = %d, want 1", got)
	}
	res, err := sys.Synchronize(rec, WithRoot(1), Centered())
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if res.Corrections[1] != 0 {
		t.Errorf("root correction = %v, want 0", res.Corrections[1])
	}
}

func TestRunScenarioJSON(t *testing.T) {
	cfg := []byte(`{
		"processors": 4,
		"seed": 11,
		"startSpread": 2,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
		},
		"protocol": {"kind": "burst", "k": 3, "spacing": 0.01, "warmup": -1}
	}`)
	rep, err := RunScenarioJSON(cfg, SimOptions{Verify: true, Trials: 100})
	if err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	if rep.Messages != 4*2*3 {
		t.Errorf("Messages = %d, want 24", rep.Messages)
	}
	if rep.Realized > rep.Result.Precision+1e-9 {
		t.Errorf("realized %v exceeds precision %v", rep.Realized, rep.Result.Precision)
	}
	if rep.Certificate == nil {
		t.Fatal("certificate missing")
	}
	if err := rep.Certificate.Ok(1e-9); err != nil {
		t.Errorf("certificate invalid: %v", err)
	}
}

// TestRunScenarioJSONMessages: Report.Messages, read off the collected
// table, is the number of messages the execution delivered, counted
// here by a walk of its own. The scenario is docs/scenario.md's example
// with 10% message loss, so some sends are never delivered.
func TestRunScenarioJSONMessages(t *testing.T) {
	cfg := []byte(`{
		"processors": 8,
		"seed": 1993,
		"startSpread": 3,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.02, "ub": 0.06},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.02, "hi": 0.06}}
		},
		"links": [
			{
				"p": 1, "q": 2,
				"assumption": {"kind": "bias", "b": 0.01},
				"delays": {"kind": "biasWindow", "base": 0.08, "width": 0.01}
			}
		],
		"protocol": {"kind": "burst", "k": 6, "spacing": 0.004, "warmup": -1},
		"faults": {"loss": 0.1}
	}`)
	rep, err := RunScenarioJSON(cfg, SimOptions{})
	if err != nil {
		t.Fatalf("RunScenarioJSON: %v", err)
	}
	sc, err := scenario.Parse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered, sent := 0, 8*2*6
	if err := exec.EachMessage(func(model.Message) error { delivered++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rep.Messages != delivered || delivered == 0 || delivered >= sent {
		t.Errorf("Messages = %d, walk counts %d delivered of %d sent; want equal, and some lost", rep.Messages, delivered, sent)
	}
}

func TestRunScenarioJSONErrors(t *testing.T) {
	if _, err := RunScenarioJSON([]byte("{"), SimOptions{}); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := RunScenarioJSON([]byte(`{"processors":0,"topology":{"kind":"ring"},"protocol":{"kind":"burst","warmup":-1}}`), SimOptions{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}
