package netsync

import (
	"net"
	"testing"
	"time"
)

// TestHostileFramesDoNotKillNodes: a well-formed frame of an unexpected
// type — a "result" pushed at any listener, a "report" pushed at a
// non-coordinator — is a per-connection protocol error, never a node
// failure. Pre-hardening, a 7-byte frame from any peer terminated the
// process; now the connection closes, the counter ticks and the cluster
// completes unauthenticated as before.
func TestHostileFramesDoNotKillNodes(t *testing.T) {
	offsets := []time.Duration{0, 80 * time.Millisecond, -20 * time.Millisecond}
	nodes := startCluster(t, offsets, time.Millisecond, 0.5)

	inject := func(addr string, m *Message) {
		t.Helper()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		if err := c.send(m, 2*time.Second); err != nil {
			t.Fatalf("send hostile frame: %v", err)
		}
		// The node answers by closing the connection, not by dying.
		if _, err := c.recv(4 * time.Second); err == nil {
			t.Fatal("hostile frame was answered instead of dropped")
		}
		_ = c.close()
	}

	// A result frame at the coordinator's listener.
	inject(nodes[0].Addr(), &Message{Type: "result", Corrections: []float64{0, 0, 0}})
	// A report frame at a non-coordinator.
	inject(nodes[1].Addr(), &Message{Type: "report", Origin: 2})
	// An out-of-range origin at the coordinator (unauthenticated cluster):
	// absorbed, it would inflate the quorum count and mark honest nodes
	// missing.
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: -1})
	// Malformed reports at the coordinator: inverted stats in node 2's
	// name, and stats claimed for another node (To != Origin). Each is
	// rejected whole without being stored, so the genuine reports of
	// nodes 1 and 2 are still accepted.
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: 2,
		Links: []LinkStats{{From: 0, To: 2, Count: 3, Min: 0.2, Max: 0.1}}})
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: 1,
		Links: []LinkStats{{From: 0, To: 2, Count: 3, Min: 0.1, Max: 0.2}}})

	waitClusterSound(t, nodes, offsets)
	if pe := nodes[0].Stats().ProtocolErrors; pe != 4 {
		t.Fatalf("coordinator ProtocolErrors = %d, want 4", pe)
	}
	if pe := nodes[1].Stats().ProtocolErrors; pe != 1 {
		t.Fatalf("node 1 ProtocolErrors = %d, want 1", pe)
	}
}
