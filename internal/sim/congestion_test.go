package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestCongestedWindows(t *testing.T) {
	c := Congestion{Period: 10, Duty: 0.3, Phase: 0}
	tests := []struct {
		t    float64
		want bool
	}{
		{0, true},
		{2.9, true},
		{3.1, false},
		{9.9, false},
		{10.5, true},
		{-7.5, true},  // -7.5 mod 10 = 2.5 < 3
		{-0.5, false}, // 9.5 >= 3
	}
	for _, tt := range tests {
		if got := c.Congested(tt.t); got != tt.want {
			t.Errorf("Congested(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if (Congestion{Period: 0}).Congested(5) {
		t.Error("zero period reported congestion")
	}
}

func TestCongestionSampleAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Congestion{
		Base:   Symmetric(Constant{D: 0.1}),
		Period: 10, Duty: 0.5, Surge: 1.0,
	}
	// Quiet time: exactly the base delay.
	if d := c.Delay(rng, 7, true); d != 0.1 {
		t.Errorf("quiet delay = %v, want 0.1", d)
	}
	// Congested time: base plus surge in [0, 1].
	d := c.Delay(rng, 2, false)
	if d < 0.1 || d > 1.1 {
		t.Errorf("congested delay = %v, want in [0.1, 1.1]", d)
	}
}

// TestNestedCongestionKeepsInnerEpisodes: a congestion whose base is
// itself congested all the time (Duty 1) draws the inner surges even
// when the outer model is quiet (Duty 0). A base read without the send
// time would lose them and return the constant delay alone.
func TestNestedCongestionKeepsInnerEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner := Congestion{Base: Symmetric(Constant{D: 0.1}), Period: 1, Duty: 1, Surge: 5}
	c := Congestion{Base: inner, Period: 1, Duty: 0, Surge: 3}
	hi := 0.0
	for i := 0; i < 200; i++ {
		d := c.Delay(rng, float64(i)*0.37, i%2 == 0)
		if d < 0.1 || d > 5.1 {
			t.Fatalf("delay %v outside the inner range [0.1, 5.1]", d)
		}
		hi = math.Max(hi, d)
	}
	if hi < 2 {
		t.Errorf("largest of 200 delays %v: the inner surges are lost", hi)
	}
}

// TestCongestionInEngine verifies the engine passes the send time to the
// link model: messages sent during episodes are measurably slower.
func TestCongestionInEngine(t *testing.T) {
	starts := []float64{0, 0}
	cong := Congestion{
		Base:   Symmetric(Constant{D: 0.01}),
		Period: 2, Duty: 0.5, Surge: 0.5, Phase: 0,
	}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays { return cong })
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	// Periodic sends every 0.25 s for 16 beats starting at clock 0.5:
	// half land in episodes.
	exec, err := Run(net, NewPeriodicFactory(0.25, 16, 0.5), RunConfig{Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	slow, fast := 0, 0
	for _, m := range msgs {
		sendReal := exec.Histories[m.From].Start + m.SendClock
		d := m.Delay(exec)
		if cong.Congested(sendReal) {
			if d <= 0.01 {
				t.Errorf("congested send at %v has quiet delay %v", sendReal, d)
			}
			slow++
		} else {
			if math.Abs(d-0.01) > 1e-12 {
				t.Errorf("quiet send at %v has delay %v", sendReal, d)
			}
			fast++
		}
	}
	if slow == 0 || fast == 0 {
		t.Errorf("want both congested (%d) and quiet (%d) messages", slow, fast)
	}
}
