package dist

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// setup builds a network + assumption links for a topology with uniform
// delays.
func setup(t *testing.T, rng *rand.Rand, n int, pairs []sim.Pair, lo, hi float64) (*sim.Network, []core.Link, []float64) {
	t.Helper()
	starts := sim.UniformStarts(rng, n, 1)
	net, err := sim.NewNetwork(starts, pairs, func(sim.Pair) sim.LinkDelays {
		return sim.Symmetric(sim.Uniform{Lo: lo, Hi: hi})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	bounds, err := delay.SymmetricBounds(lo, hi)
	if err != nil {
		t.Fatalf("SymmetricBounds: %v", err)
	}
	links := make([]core.Link, 0, len(pairs))
	for _, e := range pairs {
		p, q := e.P, e.Q
		if p > q {
			p, q = q, p
		}
		links = append(links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: bounds})
	}
	return net, links, starts
}

func runDist(t *testing.T, net *sim.Network, links []core.Link, starts []float64, seed int64) (*Outcome, *model.Execution) {
	t.Helper()
	cfg := Config{
		Leader:  0,
		Links:   links,
		Probes:  4,
		Spacing: 0.01,
		Warmup:  sim.SafeWarmup(starts) + 0.5,
		Window:  5,
	}
	out, exec, err := Run(net, cfg, sim.RunConfig{Seed: seed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, exec
}

// TestDistMatchesCentralized is the key property: the leader's distributed
// result equals the centralized pipeline run on the very statistics the
// reports carried.
func TestDistMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	topologies := []struct {
		name  string
		n     int
		pairs []sim.Pair
	}{
		{"pair", 2, sim.Ring(2)},
		{"ring6", 6, sim.Ring(6)},
		{"line5", 5, sim.Line(5)},
		{"star7", 7, sim.Star(7)},
		{"grid3x3", 9, sim.Grid(3, 3)},
	}
	for _, tt := range topologies {
		t.Run(tt.name, func(t *testing.T) {
			net, links, starts := setup(t, rng, tt.n, tt.pairs, 0.05, 0.2)
			out, _ := runDist(t, net, links, starts, rng.Int63())

			res, err := core.SynchronizeSystem(tt.n, links, out.LeaderTable, core.DefaultMLSOptions(), core.Options{Root: 0})
			if err != nil {
				t.Fatalf("centralized: %v", err)
			}
			if math.Abs(res.Precision-out.Precision) > 1e-12 {
				t.Errorf("precision: dist %v vs centralized %v", out.Precision, res.Precision)
			}
			for p := range out.Corrections {
				if math.Abs(out.Corrections[p]-res.Corrections[p]) > 1e-12 {
					t.Errorf("correction p%d: dist %v vs centralized %v", p, out.Corrections[p], res.Corrections[p])
				}
			}
			// The distributed result must respect the precision guarantee
			// against the true skews on the measurement traffic.
			rho, err := core.Rho(starts, out.Corrections)
			if err != nil {
				t.Fatal(err)
			}
			if rho > out.Precision+1e-9 {
				t.Errorf("rho %v exceeds precision %v", rho, out.Precision)
			}
		})
	}
}

func TestDistReportsCountAndApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, links, starts := setup(t, rng, 6, sim.Ring(6), 0.05, 0.1)
	out, _ := runDist(t, net, links, starts, 5)
	if out.ReportsSeen != 6 {
		t.Errorf("ReportsSeen = %d, want 6", out.ReportsSeen)
	}
	for p, ok := range out.Applied {
		if !ok {
			t.Errorf("p%d did not apply a correction", p)
		}
	}
	if out.Corrections[0] != 0 {
		t.Errorf("leader correction = %v, want 0", out.Corrections[0])
	}
}

func TestDistLeaderChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, links, starts := setup(t, rng, 5, sim.Line(5), 0.05, 0.1)
	cfg := Config{
		Leader: 4, Links: links, Probes: 2, Spacing: 0.01,
		Warmup: sim.SafeWarmup(starts) + 0.5, Window: 3,
	}
	out, _, err := Run(net, cfg, sim.RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Corrections[4] != 0 {
		t.Errorf("leader correction = %v, want 0", out.Corrections[4])
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"bad leader", Config{Leader: 9, Probes: 1, Window: 1}},
		{"zero probes", Config{Probes: 0, Window: 1}},
		{"zero window", Config{Probes: 1}},
		{"negative warmup", Config{Probes: 1, Window: 1, Warmup: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := newFactory(4, tt.cfg, nil); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestDistPrecisionSanity: on a constant-delay ring with midpoint delays,
// the distributed protocol reproduces the exact analytic precision.
func TestDistPrecisionSanity(t *testing.T) {
	const (
		n      = 6
		lb, ub = 0.1, 0.3
	)
	starts := []float64{0, 0.2, 0.4, 0.1, 0.3, 0.25}
	net, err := sim.NewNetwork(starts, sim.Ring(n), func(sim.Pair) sim.LinkDelays {
		return sim.Symmetric(sim.Constant{D: (lb + ub) / 2})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	bounds, err := delay.SymmetricBounds(lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	var links []core.Link
	for _, e := range sim.Ring(n) {
		links = append(links, core.Link{P: model.ProcID(e.P), Q: model.ProcID(e.Q), A: bounds})
	}
	cfg := Config{Leader: 0, Links: links, Probes: 1, Warmup: 1, Window: 2}
	out, _, err := Run(net, cfg, sim.RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Ring of 6, constant midpoint delays: A_max = floor(n/2)*u/2 = 0.3.
	if want := 0.3; math.Abs(out.Precision-want) > 1e-9 {
		t.Errorf("Precision = %v, want %v", out.Precision, want)
	}
}

// TestPayloadsAreSerializable: the three message types survive a JSON
// round trip, so a wire transport could carry them unchanged.
func TestPayloadsAreSerializable(t *testing.T) {
	st := trace.NewDirStats()
	st.Add(0.5)
	st.Add(0.7)
	msgs := []any{
		Probe{SendClock: 1.25},
		Report{Origin: 3, Links: []DirReport{{From: 1, To: 3, Stats: st}}},
		ResultMsg{Corrections: []float64{0, 0.5}, Precision: 0.25},
	}
	for _, m := range msgs {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %T: %v", m, err)
		}
		switch m.(type) {
		case Probe:
			var v Probe
			if err := json.Unmarshal(data, &v); err != nil || v != m {
				t.Errorf("Probe round trip: %v %v", v, err)
			}
		case Report:
			var v Report
			if err := json.Unmarshal(data, &v); err != nil || v.Origin != 3 || len(v.Links) != 1 || v.Links[0].Stats.Count != 2 {
				t.Errorf("Report round trip: %+v %v", v, err)
			}
		case ResultMsg:
			var v ResultMsg
			if err := json.Unmarshal(data, &v); err != nil || v.Precision != 0.25 {
				t.Errorf("ResultMsg round trip: %+v %v", v, err)
			}
		}
	}
}

// TestDistMessageOverhead documents the protocol's message complexity:
// probes (2*k*m) + report flood (<= n per link in each direction) + result
// flood.
func TestDistMessageOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net, links, starts := setup(t, rng, 6, sim.Ring(6), 0.05, 0.1)
	out, exec := runDist(t, net, links, starts, 77)
	_ = out
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatal(err)
	}
	const (
		m, k, n = 6, 4, 6 // ring links, probes, processors
	)
	probes := 2 * k * m
	// Flood upper bound: each of n reports + 1 result crosses each link at
	// most twice (once per direction).
	maxFlood := (n + 1) * 2 * m
	if len(msgs) < probes || len(msgs) > probes+maxFlood {
		t.Errorf("messages = %d, want in [%d, %d]", len(msgs), probes, probes+maxFlood)
	}
}

// TestGossipMatchesLeader: the leaderless variant produces exactly the
// leader variant's corrections (identical tables, same deterministic
// computation), with every node computing locally.
func TestGossipMatchesLeader(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tt := range []struct {
		name  string
		n     int
		pairs []sim.Pair
	}{
		{"ring6", 6, sim.Ring(6)},
		{"grid2x3", 6, sim.Grid(2, 3)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			net, links, starts := setup(t, rng, tt.n, tt.pairs, 0.05, 0.15)
			cfg := Config{
				Leader: 0, Links: links, Probes: 3, Spacing: 0.01,
				Warmup: sim.SafeWarmup(starts) + 0.5, Window: 4,
			}
			seed := rng.Int63()
			leaderOut, _, err := Run(net, cfg, sim.RunConfig{Seed: seed})
			if err != nil {
				t.Fatalf("Run(leader): %v", err)
			}
			gossipOut, _, err := GossipRun(net, cfg, sim.RunConfig{Seed: seed})
			if err != nil {
				t.Fatalf("GossipRun: %v", err)
			}
			if math.Abs(gossipOut.Precision-leaderOut.Precision) > 1e-12 {
				t.Errorf("precision: gossip %v vs leader %v", gossipOut.Precision, leaderOut.Precision)
			}
			for p := range gossipOut.Corrections {
				if math.Abs(gossipOut.Corrections[p]-leaderOut.Corrections[p]) > 1e-12 {
					t.Errorf("correction p%d: gossip %v vs leader %v", p, gossipOut.Corrections[p], leaderOut.Corrections[p])
				}
			}
		})
	}
}

// TestGossipMessageCount: gossip skips the result flood, so with
// identical seeds it delivers strictly fewer messages than the leader
// variant, while both executions hold the same probes.
func TestGossipMessageCount(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	net, links, starts := setup(t, rng, 6, sim.Ring(6), 0.05, 0.15)
	cfg := Config{
		Leader: 0, Links: links, Probes: 2, Spacing: 0.01,
		Warmup: sim.SafeWarmup(starts) + 0.5, Window: 4,
	}
	leadOut, leadExec, err := Run(net, cfg, sim.RunConfig{Seed: 9})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	gossOut, gossExec, err := GossipRun(net, cfg, sim.RunConfig{Seed: 9})
	if err != nil {
		t.Fatalf("GossipRun: %v", err)
	}
	if gossOut.Delivered >= leadOut.Delivered {
		t.Errorf("gossip delivered %d, leader %d: expected strictly fewer (no result flood)", gossOut.Delivered, leadOut.Delivered)
	}
	lm, err := leadExec.Messages()
	if err != nil {
		t.Fatal(err)
	}
	gm, err := gossExec.Messages()
	if err != nil {
		t.Fatal(err)
	}
	if len(gm) != len(lm) || leadOut.Delivered <= len(lm) {
		t.Errorf("executions hold %d (gossip) and %d (leader) messages of %d delivered: want the same probes, fewer than delivered",
			len(gm), len(lm), leadOut.Delivered)
	}
}

// TestExecutionHoldsProbesOnly: the execution of a fault-free run whose
// window admits every probe is the measurement execution: exactly
// 2 x Probes messages per link, and its Lemma 6.1 reduction is the
// leader's table bit for bit. DirStats keeps Count, Min and Max only, so
// the order the samples arrive in does not matter.
func TestExecutionHoldsProbesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pairs := sim.RandomConnected(rng, 9, 0.4)
	net, links, starts := setup(t, rng, 9, pairs, 0.05, 0.2)
	out, exec := runDist(t, net, links, starts, 5)
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 4 * len(pairs); len(msgs) != want || out.Delivered <= want {
		t.Fatalf("execution holds %d messages of %d delivered, want the %d probes", len(msgs), out.Delivered, want)
	}
	table, err := trace.Collect(exec, false)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(s trace.DirStats) [3]uint64 {
		return [3]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max)}
	}
	for p := 0; p < 9; p++ {
		for q := 0; q < 9; q++ {
			got, want := table.Stats(model.ProcID(p), model.ProcID(q)), out.LeaderTable.Stats(model.ProcID(p), model.ProcID(q))
			if bits(got) != bits(want) {
				t.Errorf("p%d->p%d: execution reduces to %v, leader table holds %v", p, q, got, want)
			}
		}
	}
}

func TestGossipConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	net, _, _ := setup(t, rng, 3, sim.Ring(3), 0.05, 0.1)
	if _, _, err := GossipRun(net, Config{Probes: 0, Window: 1}, sim.RunConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}
