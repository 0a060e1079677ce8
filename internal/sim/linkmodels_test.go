package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/prob"
	"clocksync/internal/sim"
)

// TestLinkModelDraws pins the draws of every link model kind: one line
// network carries one link of each kind, and the digest covers every
// delivered message (endpoints, send and receipt clock bits, in
// correspondence order) plus the number of lost messages. Any change to
// a model's draws, their order on the run's random stream or the loss
// decision moves it. The digest was generated by the link models that
// drew each delay through SamplePQ, SampleQP and the optional SampleAt.
func TestLinkModelDraws(t *testing.T) {
	links := []sim.LinkDelays{
		sim.Symmetric(sim.Constant{D: 0.05}),
		sim.Symmetric(sim.Uniform{Lo: 0.01, Hi: 0.09}),
		sim.Symmetric(sim.ShiftedExp{Min: 0.02, Mean: 0.03}),
		sim.Symmetric(sim.TruncNormal{Mu: 0.05, Sigma: 0.02, Lo: 0.02, Hi: 0.1}),
		sim.Symmetric(sim.Bimodal{A: sim.Constant{D: 0.01}, B: sim.Uniform{Lo: 0.2, Hi: 0.3}, PA: 0.7}),
		sim.Independent{PQ: sim.Uniform{Lo: 0.01, Hi: 0.02}, QP: sim.ShiftedExp{Min: 0.1, Mean: 0.05}},
		sim.BiasWindow{Base: 0.04, Width: 0.01},
		sim.Congestion{Base: sim.Symmetric(sim.Uniform{Lo: 0.01, Hi: 0.03}), Period: 2, Duty: 0.5, Surge: 0.4, Phase: 0.3},
		sim.Lossy{Inner: sim.Congestion{Base: sim.Symmetric(sim.Constant{D: 0.02}), Period: 1.5, Duty: 0.4, Surge: 0.2}, P: 0.3},
		sim.Symmetric(prob.Sampler{D: prob.LogNormal{Mu: -3, Sigma: 0.5}}),
	}
	const count = 40
	n := len(links) + 1
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = 0.037 * float64(p%4)
	}
	net, err := sim.NewNetwork(starts, sim.Line(n), func(e sim.Pair) sim.LinkDelays { return links[e.P] })
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := sim.Run(net, sim.NewPeriodicFactory(0.125, count, sim.SafeWarmup(starts)+0.5), sim.RunConfig{Seed: 42})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := sha256.New()
	var b [24]byte
	delivered := 0
	if err := exec.EachMessage(func(m model.Message) error {
		binary.LittleEndian.PutUint32(b[0:], uint32(m.From))
		binary.LittleEndian.PutUint32(b[4:], uint32(m.To))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.SendClock))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(m.RecvClock))
		h.Write(b[:])
		delivered++
		return nil
	}); err != nil {
		t.Fatalf("EachMessage: %v", err)
	}
	// A lost message never reaches the execution; every processor sends
	// count beacons to each neighbor, so a link carries 2*count sends.
	lost := 2*count*len(links) - delivered
	binary.LittleEndian.PutUint64(b[:8], uint64(lost))
	h.Write(b[:8])
	const (
		wantLost   = 25
		wantDigest = "92eb137e20d0039f45c40f8e10a79e5c083ebda76ddb1b1d677d485c54e21149"
	)
	if got := hex.EncodeToString(h.Sum(nil)); lost != wantLost || got != wantDigest {
		t.Errorf("lost %d, digest %s; want lost %d, digest %s", lost, got, wantLost, wantDigest)
	}
}
