package netsync

import (
	"math"
	"net"
	"testing"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/round"
	"clocksync/internal/trace"
)

// TestKeyedLiarExcised: a keyed node signs a report whose incoming minima
// sit 1.2 s past the declared [0, 0.5] bounds. The MAC proves who sent
// it but cannot make it true. The coordinator's consistency checks pin
// the lie on its signer (every link of node 3 leaves the round-trip
// envelope): nodes 0–2 still synchronize, degraded, with node 3 excised,
// instead of the whole cluster failing infeasible.
func TestKeyedLiarExcised(t *testing.T) {
	const session = "netsync-keyed-liar"
	offsets := []time.Duration{0, 60 * time.Millisecond, -30 * time.Millisecond, 40 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 31)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
		c.Session = session
	})

	// Honest estimates of q->3 are d + off3 - offq with d in [0, 0.5].
	lie := &Message{Type: "report", Origin: 3}
	for q := 0; q < 3; q++ {
		d := 0.5 + 1.2 + offsets[3].Seconds() - offsets[q].Seconds()
		lie.Links = append(lie.Links, LinkStats{From: model.ProcID(q), To: 3, Count: 4, Min: d, Max: d + 0.001})
	}
	signFrame(t, keys[3], lie)
	raw, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	defer func() { _ = c.close() }()
	if err := c.send(lie, 2*time.Second); err != nil {
		t.Fatalf("send signed lie: %v", err)
	}

	outs := make([]*Outcome, 3)
	for i := range outs {
		out, err := nodes[i].Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	if !outs[0].Degraded || len(outs[0].Excised) != 1 || outs[0].Excised[0] != 3 {
		t.Fatalf("degraded=%v excised=%v, want degraded with [3] excised", outs[0].Degraded, outs[0].Excised)
	}
	// The parked liar connection gets the same result frame.
	res, err := c.recv(8 * time.Second)
	if err != nil || len(res.Excised) != 1 || res.Excised[0] != 3 {
		t.Fatalf("liar's result frame %+v (%v), want excised [3]", res, err)
	}

	worst := 0.0
	for p := 0; p < 3; p++ {
		for q := 0; q < 3; q++ {
			sp, sq := -offsets[p].Seconds(), -offsets[q].Seconds()
			worst = math.Max(worst, math.Abs((sp-outs[0].Corrections[p])-(sq-outs[0].Corrections[q])))
		}
	}
	if worst > outs[0].Precision+1e-9 {
		t.Fatalf("realized %v among nodes 0-2 exceeds precision %v", worst, outs[0].Precision)
	}

	found := false
	for _, rec := range obs.Rounds.Snapshot() {
		if rec.Session == session {
			found = true
			if rec.Excised != 1 || rec.Outcome != "degraded" {
				t.Fatalf("flight record %+v, want excised 1, degraded", rec)
			}
		}
	}
	if !found {
		t.Fatal("no flight record for the round")
	}
}

// TestHonestRoundMatchesCentralized: with every report honest the
// coordinator's consistency checks excise nothing, and its corrections
// are bit-identical to the centralized computation on the table it
// assembled — the reports plus its own live statistics.
func TestHonestRoundMatchesCentralized(t *testing.T) {
	offsets := []time.Duration{0, 90 * time.Millisecond, -40 * time.Millisecond, 25 * time.Millisecond}
	nodes := startCluster(t, offsets, time.Millisecond, 0.5)
	outs := make([]*Outcome, len(nodes))
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	if outs[0].Degraded || len(outs[0].Excised) != 0 {
		t.Fatalf("honest round degraded=%v excised=%v", outs[0].Degraded, outs[0].Excised)
	}

	tab := trace.NewTable(len(nodes), false)
	for _, node := range nodes {
		node.mu.Lock()
		for from, st := range node.incoming {
			if err := tab.MergeStats(from, node.cfg.ID, st); err != nil {
				t.Fatal(err)
			}
		}
		node.mu.Unlock()
	}
	want, err := core.SynchronizeSystem(len(nodes), nodes[0].cfg.Links, tab, core.DefaultMLSOptions(),
		core.Options{Root: 0, Centered: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want.Precision) != math.Float64bits(outs[0].Precision) {
		t.Fatalf("precision %v, centralized %v", outs[0].Precision, want.Precision)
	}
	for p := range want.Corrections {
		if math.Float64bits(want.Corrections[p]) != math.Float64bits(outs[0].Corrections[p]) {
			t.Fatalf("correction %d: %v, centralized %v", p, outs[0].Corrections[p], want.Corrections[p])
		}
	}
}

// TestRoundFeedsPhaseHistograms: the solver phase histograms count
// coordinator rounds on every transport, this one included.
func TestRoundFeedsPhaseHistograms(t *testing.T) {
	h := obs.Default.Histogram("dist.phase.estimate.seconds", nil)
	before := h.Snapshot().Count
	offsets := []time.Duration{0, 30 * time.Millisecond}
	nodes := startCluster(t, offsets, 0, 0.5)
	for i, node := range nodes {
		if _, err := node.Wait(8 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if got := h.Snapshot().Count; got <= before {
		t.Fatalf("dist.phase.estimate.seconds count %d after a round, was %d", got, before)
	}
}
