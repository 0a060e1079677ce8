package netsync

import (
	"math"
	"testing"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/round"
)

// startCluster spins up n in-process nodes on loopback with the given
// clock offsets, complete topology, symmetric [0, maxDelay] assumptions.
// Optional mutators adjust every node's config before start (e.g. to
// install a keyring).
func startCluster(t *testing.T, offsets []time.Duration, jitter time.Duration, maxDelay float64, mutate ...func(*Config)) []*Node {
	t.Helper()
	n := len(offsets)

	// Bind all listeners first so peers can dial immediately.
	nodes := make([]*Node, n)
	cfgs := make([]Config, n)
	bounds, err := delay.SymmetricBounds(0, maxDelay)
	if err != nil {
		t.Fatal(err)
	}
	var links []core.Link
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, core.Link{P: model.ProcID(i), Q: model.ProcID(j), A: bounds})
		}
	}
	for i := range cfgs {
		cfgs[i] = Config{
			ID:          model.ProcID(i),
			N:           n,
			Listen:      "127.0.0.1:0",
			Coordinator: 0,
			Links:       links,
			Probes:      4,
			Interval:    2 * time.Millisecond,
			ClockOffset: offsets[i],
			Jitter:      jitter,
			Seed:        int64(1000 + i),
			Timeout:     5 * time.Second,
			Centered:    true,
		}
		for _, f := range mutate {
			f(&cfgs[i])
		}
	}
	// Start the coordinator first to learn its address.
	coord, err := Start(cfgs[0])
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	nodes[0] = coord
	t.Cleanup(coord.Shutdown)

	// The coordinator has no peers yet (complete topology needs all
	// addresses up front) — instead each NON-coordinator probes every
	// lower-id node already started, and receives probes from higher ids;
	// both directions still get traffic because probing is directional
	// per sender. Start nodes in order, wiring peers to all prior nodes.
	addrs := make(map[model.ProcID]string, n)
	addrs[0] = coord.Addr()
	for i := 1; i < n; i++ {
		peers := make(map[model.ProcID]string, i)
		for j := 0; j < i; j++ {
			peers[model.ProcID(j)] = addrs[model.ProcID(j)]
		}
		cfgs[i].Peers = peers
		cfgs[i].CoordinatorAddr = coord.Addr()
		node, err := Start(cfgs[i])
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		t.Cleanup(node.Shutdown)
		addrs[model.ProcID(i)] = node.Addr()
	}
	return nodes
}

// TestClusterEndToEnd runs a real 4-node TCP cluster: every node applies a
// correction, the corrections recover the configured clock offsets within
// the reported precision, and all nodes agree on the vector.
func TestClusterEndToEnd(t *testing.T) {
	offsets := []time.Duration{0, 120 * time.Millisecond, -80 * time.Millisecond, 450 * time.Millisecond}
	nodes := startCluster(t, offsets, 2*time.Millisecond, 0.5)

	outs := make([]*Outcome, len(nodes))
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	precision := outs[0].Precision
	if math.IsInf(precision, 1) || precision <= 0 {
		t.Fatalf("precision = %v", precision)
	}
	for i, out := range outs {
		if out.Precision != precision {
			t.Errorf("node %d precision %v != %v", i, out.Precision, precision)
		}
		for p := range out.Corrections {
			if out.Corrections[p] != outs[0].Corrections[p] {
				t.Errorf("node %d disagrees on correction %d", i, p)
			}
		}
	}

	// Ground truth: S_p = -offset_p, so corrected clocks agree iff
	// max |(S_p - x_p) - (S_q - x_q)| <= precision.
	starts := make([]float64, len(offsets))
	for p, off := range offsets {
		starts[p] = -off.Seconds()
	}
	rho, err := core.Rho(starts, outs[0].Corrections)
	if err != nil {
		t.Fatal(err)
	}
	if rho > precision+1e-9 {
		t.Errorf("realized discrepancy %v exceeds precision %v", rho, precision)
	}
	// Sanity: without corrections the skew is ~0.53 s; with them, the
	// residual must be far smaller than the largest offset.
	if rho > 0.45 {
		t.Errorf("corrections did not reduce the skew: rho = %v", rho)
	}
}

// TestClusterPairOneWayProbes: with only one side probing, the other
// direction carries no traffic but the reports still connect the system
// (both endpoints report their incoming direction).
func TestClusterPair(t *testing.T) {
	offsets := []time.Duration{0, -60 * time.Millisecond}
	nodes := startCluster(t, offsets, time.Millisecond, 0.5)
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if math.IsInf(out.Precision, 1) {
			t.Fatalf("node %d: infinite precision", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"bad id", Config{ID: 5, N: 2, Coordinator: 0, Listen: "127.0.0.1:0"}},
		{"bad coordinator", Config{ID: 0, N: 2, Coordinator: 7, Listen: "127.0.0.1:0"}},
		{"missing coordinator addr", Config{ID: 1, N: 2, Coordinator: 0, Listen: "127.0.0.1:0"}},
		{"self peer", Config{ID: 0, N: 2, Coordinator: 0, Listen: "127.0.0.1:0",
			Peers: map[model.ProcID]string{0: "x"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			node, err := Start(tt.cfg)
			if err == nil {
				node.Shutdown()
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestLinkStatsValidation(t *testing.T) {
	check := func(ls LinkStats) error { return round.Validate(2, 1, roundLinks([]LinkStats{ls})) }
	if check(LinkStats{From: 0, To: 1, Count: 0}) == nil {
		t.Error("zero count accepted")
	}
	if check(LinkStats{From: 0, To: 1, Count: 2, Min: 3, Max: 1}) == nil {
		t.Error("inverted stats accepted")
	}
	if err := check(LinkStats{From: 0, To: 1, Count: 2, Min: 1, Max: 3}); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
}

// TestShutdownIdempotent: Shutdown twice and before completion must not
// panic or hang.
func TestShutdownIdempotent(t *testing.T) {
	node, err := Start(Config{
		ID: 0, N: 3, Coordinator: 0, Listen: "127.0.0.1:0",
		Probes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Shutdown()
	node.Shutdown()
}

// TestApplyResultErrors exercises the result-handling failure paths.
func TestApplyResultErrors(t *testing.T) {
	node, err := Start(Config{ID: 0, N: 2, Coordinator: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Shutdown()

	// Coordinator-reported error surfaces through Wait.
	node.applyResult(&Message{Type: "result", Err: "boom"})
	if _, err := node.Wait(100 * time.Millisecond); err == nil {
		t.Error("coordinator error not surfaced")
	}

	// Malformed result (missing corrections) surfaces too.
	node2, err := Start(Config{ID: 1, N: 2, Coordinator: 0, Listen: "127.0.0.1:0", CoordinatorAddr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Shutdown()
	node2.applyResult(&Message{Type: "result", Corrections: []float64{0}})
	if _, err := node2.Wait(100 * time.Millisecond); err == nil {
		t.Error("short corrections vector not surfaced")
	}
}

// TestWaitTimeout: a node that never hears back reports a timeout.
func TestWaitTimeout(t *testing.T) {
	node, err := Start(Config{
		ID: 0, N: 3, Coordinator: 0, Listen: "127.0.0.1:0",
		Probes: 1, ReportDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Shutdown()
	// Two reports will never arrive (no other nodes exist).
	if _, err := node.Wait(150 * time.Millisecond); err == nil {
		t.Error("missing-report cluster did not time out")
	}
}
