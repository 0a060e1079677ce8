package netsync

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/round"
)

// TestClusterAuthenticated: a fully keyed cluster synchronizes end to end
// exactly like an unauthenticated one — every report verifies, nothing is
// rejected, and the corrections recover the offsets.
func TestClusterAuthenticated(t *testing.T) {
	offsets := []time.Duration{0, 90 * time.Millisecond, -50 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 424242)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
	})
	outs := make([]*Outcome, len(nodes))
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	if af := nodes[0].Stats().AuthFailures; af != 0 {
		t.Fatalf("honest keyed cluster rejected %d reports", af)
	}
	starts := make([]float64, len(offsets))
	for p, off := range offsets {
		starts[p] = -off.Seconds()
	}
	rho, err := core.Rho(starts, outs[0].Corrections)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(outs[0].Precision, 1) {
		t.Fatal("infinite precision")
	}
	if rho > outs[0].Precision+1e-9 {
		t.Fatalf("realized %v exceeds precision %v", rho, outs[0].Precision)
	}
}

// TestForgedReportRejected: a network-level attacker who owns no key
// injects a report in an honest node's name. The coordinator rejects the
// frame (counted as an auth failure), treats it as loss, and the genuine
// cluster still completes with sound corrections.
func TestForgedReportRejected(t *testing.T) {
	offsets := []time.Duration{0, 70 * time.Millisecond, -40 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 99)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
	})

	// The forgery claims impossibly fast statistics for node 1's links,
	// signed with no key at all — the MAC cannot verify.
	raw, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	forged := &Message{
		Type:   "report",
		Origin: 1,
		Links: []LinkStats{
			{From: 0, To: 1, Count: 4, Min: 0.0001, Max: 0.0002},
			{From: 2, To: 1, Count: 4, Min: 0.0001, Max: 0.0002},
		},
		MAC: []byte("not a real mac"),
	}
	if err := c.send(forged, 2*time.Second); err != nil {
		t.Fatalf("send forged report: %v", err)
	}
	// The coordinator drops the frame and closes the connection; the
	// close is our acknowledgment that the frame was processed.
	if _, err := c.recv(4 * time.Second); err == nil {
		t.Fatal("forged report was answered instead of dropped")
	}
	_ = c.close()

	outs := make([]*Outcome, len(nodes))
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	if af := nodes[0].Stats().AuthFailures; af != 1 {
		t.Fatalf("AuthFailures = %d, want 1", af)
	}
	starts := make([]float64, len(offsets))
	for p, off := range offsets {
		starts[p] = -off.Seconds()
	}
	rho, err := core.Rho(starts, outs[0].Corrections)
	if err != nil {
		t.Fatal(err)
	}
	if rho > outs[0].Precision+1e-9 {
		t.Fatalf("realized %v exceeds precision %v", rho, outs[0].Precision)
	}
}

// TestForgedReportEmptyKeyMAC: the classic bypass — a keyless attacker
// MACs a forged report under the empty key, hoping the receiver looks up
// a missing origin and verifies under nil. The keyring is complete and
// the origin's real key is used, so the forgery is rejected and the
// cluster completes.
func TestForgedReportEmptyKeyMAC(t *testing.T) {
	offsets := []time.Duration{0, 60 * time.Millisecond, -30 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 7)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
	})

	raw, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	forged := &Message{
		Type:   "report",
		Origin: 1,
		Links:  []LinkStats{{From: 0, To: 1, Count: 4, Min: 0.0001, Max: 0.0002}},
	}
	signFrame(t, nil, forged) // what any keyless attacker can compute
	if err := c.send(forged, 2*time.Second); err != nil {
		t.Fatalf("send forged report: %v", err)
	}
	if _, err := c.recv(4 * time.Second); err == nil {
		t.Fatal("empty-key forgery was answered instead of dropped")
	}
	_ = c.close()

	waitClusterSound(t, nodes, offsets)
	if af := nodes[0].Stats().AuthFailures; af != 1 {
		t.Fatalf("AuthFailures = %d, want 1", af)
	}
}

// TestForgedReportOutOfRangeOrigin: a report claiming a nonexistent
// origin can never be legitimate; it is a protocol error — the quorum
// count must not inflate and the round must not fail.
func TestForgedReportOutOfRangeOrigin(t *testing.T) {
	offsets := []time.Duration{0, 60 * time.Millisecond, -30 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 8)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
	})

	raw, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	forged := &Message{Type: "report", Origin: 99}
	signFrame(t, nil, forged)
	if err := c.send(forged, 2*time.Second); err != nil {
		t.Fatalf("send forged report: %v", err)
	}
	if _, err := c.recv(4 * time.Second); err == nil {
		t.Fatal("out-of-range origin was answered instead of dropped")
	}
	_ = c.close()

	waitClusterSound(t, nodes, offsets)
	if pe := nodes[0].Stats().ProtocolErrors; pe != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", pe)
	}
}

// TestForgedProbeRejected: in a keyed cluster an injected probe with an
// absurd timestamp is dropped before it can poison the coordinator's own
// incoming statistics, and the run stays sound.
func TestForgedProbeRejected(t *testing.T) {
	offsets := []time.Duration{0, 60 * time.Millisecond, -30 * time.Millisecond}
	keys := round.DeriveKeys(len(offsets), 9)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(c *Config) {
		c.Keys = keys
	})

	raw, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	// SendClock far in the past inflates the measured delay way past the
	// declared 0.5s bound; accepted, it would wreck the constraint system.
	forged := &Message{Type: "probe", From: 1, SendClock: -1000}
	signFrame(t, nil, forged)
	if err := c.send(forged, 2*time.Second); err != nil {
		t.Fatalf("send forged probe: %v", err)
	}
	_ = c.close()

	waitClusterSound(t, nodes, offsets)
	if af := nodes[0].Stats().AuthFailures; af != 1 {
		t.Fatalf("AuthFailures = %d, want 1", af)
	}
}

// waitClusterSound waits out every node and checks the corrections
// recover the offsets within the advertised precision.
func waitClusterSound(t *testing.T, nodes []*Node, offsets []time.Duration) {
	t.Helper()
	outs := make([]*Outcome, len(nodes))
	for i, node := range nodes {
		out, err := node.Wait(8 * time.Second)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs[i] = out
	}
	starts := make([]float64, len(offsets))
	for p, off := range offsets {
		starts[p] = -off.Seconds()
	}
	rho, err := core.Rho(starts, outs[0].Corrections)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(outs[0].Precision, 1) {
		t.Fatal("infinite precision")
	}
	if rho > outs[0].Precision+1e-9 {
		t.Fatalf("realized %v exceeds precision %v", rho, outs[0].Precision)
	}
}

// TestKeyringValidation: malformed keyrings are rejected at Start. A key
// for an id outside [0, N) shows as a keyring longer than N.
func TestKeyringValidation(t *testing.T) {
	base := func() Config {
		return Config{
			ID: 0, N: 2, Listen: "127.0.0.1:0", Coordinator: 0,
			Probes: 1, Interval: time.Millisecond, Timeout: time.Second,
		}
	}
	k := []byte("k")
	tests := []struct {
		name string
		keys round.Keyring
		want string
	}{
		{"missing own key", round.Keyring{nil, k}, "empty key for p0"},
		{"out of range id", round.Keyring{k, k, k}, "3 keys for 2 processors"},
		{"empty key", round.Keyring{k, {}}, "empty key for p1"},
		{"incomplete keyring", round.Keyring{k}, "1 keys for 2 processors"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			cfg.Keys = tt.keys
			if _, err := Start(cfg); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Start error = %v, want substring %q", err, tt.want)
			}
		})
	}
}

// TestForgedResultRejected: a keyed reporter whose coordinator address
// leads to an impostor gets its report answered with a result signed
// under a key other than the coordinator's. The reporter must not apply
// the forged corrections: it counts the auth failure and fails closed.
func TestForgedResultRejected(t *testing.T) {
	keys := round.DeriveKeys(2, 12)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	errc := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		c := newConn(raw)
		defer func() { _ = c.close() }()
		if _, err := c.recv(5 * time.Second); err != nil {
			errc <- err
			return
		}
		forged := &Message{Type: "result", Corrections: []float64{0, 123}, Precision: 0.001}
		body, err := frameBody(forged)
		if err == nil {
			forged.MAC = round.Sign(keys[1], body) // the only key the impostor holds
			err = c.send(forged, 2*time.Second)
		}
		errc <- err
	}()

	node, err := Start(Config{ID: 1, N: 2, Listen: "127.0.0.1:0", Coordinator: 0,
		CoordinatorAddr: ln.Addr().String(), Probes: 1, Interval: time.Millisecond,
		ReportDelay: time.Millisecond, Timeout: 5 * time.Second, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Shutdown()
	out, err := node.Wait(5 * time.Second)
	if err == nil {
		t.Fatalf("forged result applied: correction %v", out.Correction)
	}
	if !strings.Contains(err.Error(), "authentication") {
		t.Fatalf("Wait error = %v, want an authentication failure", err)
	}
	if af := node.Stats().AuthFailures; af != 1 {
		t.Fatalf("AuthFailures = %d, want 1", af)
	}
	if err := <-errc; err != nil {
		t.Fatalf("impostor: %v", err)
	}
}

// signFrame stamps m's MAC under key, as any holder of key can.
func signFrame(t *testing.T, key []byte, m *Message) {
	t.Helper()
	body, err := frameBody(m)
	if err != nil {
		t.Fatal(err)
	}
	m.MAC = round.Sign(key, body)
}
