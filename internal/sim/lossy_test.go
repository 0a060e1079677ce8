package sim

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/model"
)

func TestLossyDropsAboutP(t *testing.T) {
	starts := []float64{0, 0}
	const (
		p     = 0.3
		sends = 2000
	)
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Lossy{Inner: Symmetric(Constant{D: 0.01}), P: p}
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := Run(net, NewPeriodicFactory(0.01, sends/2, 0.5), RunConfig{Seed: 3, MaxEvents: 1 << 22})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	delivered := float64(len(msgs))
	expected := float64(sends) * (1 - p)
	sigma := math.Sqrt(float64(sends) * p * (1 - p))
	if math.Abs(delivered-expected) > 5*sigma {
		t.Errorf("delivered %v, expected ~%v (±%v)", delivered, expected, 5*sigma)
	}
	// Lost messages never enter the execution: Validate must still pass.
	if err := exec.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLossyZeroIsLossless(t *testing.T) {
	starts := []float64{0, 0}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Lossy{Inner: Symmetric(Constant{D: 0.01}), P: 0}
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := Run(net, NewBurstFactory(5, 0.01, 0.5), RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Errorf("delivered %d, want 10", len(msgs))
	}
}

func TestLossyDelegation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner := Congestion{Base: Symmetric(Constant{D: 0.1}), Period: 2, Duty: 0.5, Surge: 1}
	l := Lossy{Inner: inner, P: 0.5}
	// The inner model sees the send time: a quiet time draws the base
	// delay, a congested one the base plus the surge.
	if d := l.Delay(rng, 1.5, true); d != 0.1 {
		t.Errorf("quiet Delay = %v, want 0.1", d)
	}
	if d := l.Delay(rng, 0.5, false); d <= 0.1 || d > 1.1 {
		t.Errorf("congested Delay = %v, want in (0.1, 1.1]", d)
	}
	if got := l.String(); got == "" {
		t.Error("empty String")
	}
}

// TestLossySynchronizationDegradesGracefully: with loss, fewer samples
// reach the trace, but synchronization still succeeds and the guarantee
// holds; determinism is preserved for a fixed seed.
func TestLossySynchronizationDegradesGracefully(t *testing.T) {
	starts := []float64{0, 0.7}
	mk := func(p float64, seed int64) *model.Execution {
		net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
			return Lossy{Inner: Symmetric(Uniform{Lo: 0.05, Hi: 0.1}), P: p}
		})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		exec, err := Run(net, NewBurstFactory(20, 0.01, SafeWarmup(starts)+0.5), RunConfig{Seed: seed})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return exec
	}
	loss := mk(0.5, 9)
	noLoss := mk(0, 9)
	m1, _ := loss.Messages()
	m2, _ := noLoss.Messages()
	if len(m1) >= len(m2) {
		t.Errorf("lossy delivered %d >= lossless %d", len(m1), len(m2))
	}
	if len(m1) == 0 {
		t.Fatal("all messages lost at p=0.5, k=20: unlucky seed, adjust test")
	}
}
