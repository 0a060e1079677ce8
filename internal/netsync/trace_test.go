package netsync

import (
	"encoding/json"
	"testing"
	"time"

	"clocksync/internal/obs"
	"clocksync/internal/round"
)

// TestClusterTraceAncestry runs a keyed 5-node cluster with per-node
// traces and verifies the tentpole invariant: the coordinator reassembles
// ONE cluster-wide round trace in which every probe and report span —
// including spans shipped over the wire from other processes — chains up
// the parent links to the well-known round root, and the whole thing
// exports as valid Chrome trace_event JSON.
func TestClusterTraceAncestry(t *testing.T) {
	const (
		n    = 5
		seed = int64(99) // shared: keyring AND the derived trace id
	)
	offsets := []time.Duration{0, 30 * time.Millisecond, -20 * time.Millisecond, 75 * time.Millisecond, 10 * time.Millisecond}
	traces := make([]*obs.Trace, n)
	for i := range traces {
		traces[i] = obs.NewTrace("trace-test")
	}
	keys := round.DeriveKeys(n, seed)
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(cfg *Config) {
		cfg.Seed = seed // trace ids derive from the seed, so it must be shared
		cfg.Keys = keys
		cfg.Trace = traces[cfg.ID]
		cfg.Session = "trace-test"
	})
	for i, node := range nodes {
		if _, err := node.Wait(8 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	cluster := traces[0] // the coordinator's trace holds the merged round
	if want := DeriveTraceID(seed); cluster.TraceID() != want {
		t.Fatalf("cluster trace id %q, want the seed-derived %q", cluster.TraceID(), want)
	}
	for i := 1; i < n; i++ {
		if traces[i].TraceID() != cluster.TraceID() {
			t.Errorf("node %d trace id %q differs from the cluster's %q — correlation broken",
				i, traces[i].TraceID(), cluster.TraceID())
		}
	}

	spans := cluster.Spans()
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	rootSeen := false
	for _, s := range spans {
		if s.ID == obs.RootSpanID {
			rootSeen = true
		}
		if s.ID != 0 {
			if dup, clash := byID[s.ID]; clash && dup.Phase != s.Phase {
				t.Errorf("span id %#x used by both %q and %q", uint64(s.ID), dup.Phase, s.Phase)
			}
			byID[s.ID] = s
		}
	}
	if !rootSeen {
		t.Fatal("no round root span in the reassembled cluster trace")
	}

	reporters := map[int]bool{}
	checked := 0
	for _, s := range spans {
		switch s.Phase {
		case "probe", "probe.recv", "report", "report.send", "report.recv":
		default:
			continue
		}
		checked++
		if s.Phase == "report.send" {
			reporters[s.Proc] = true
		}
		id, hops := s.ID, 0
		for id != obs.RootSpanID {
			sp, ok := byID[id]
			if !ok || sp.Parent == 0 {
				t.Fatalf("span %q (proc %d, id %#x) does not chain to the round root", s.Phase, s.Proc, uint64(s.ID))
			}
			if hops++; hops > len(spans) {
				t.Fatalf("parent cycle at span %q (id %#x)", s.Phase, uint64(s.ID))
			}
			id = sp.Parent
		}
	}
	if checked == 0 {
		t.Fatal("no probe/report spans in the cluster trace")
	}
	for p := 1; p < n; p++ {
		if !reporters[p] {
			t.Errorf("no report.send span from node %d reached the coordinator trace", p)
		}
	}

	// The merged trace must export as loadable Chrome trace_event JSON.
	data, err := cluster.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("ChromeJSON invalid: %v", err)
	}
	if len(doc.TraceEvents) < checked {
		t.Errorf("chrome export has %d events for %d causal spans", len(doc.TraceEvents), checked)
	}
}

// TestDeriveTraceID: deterministic, seed-sensitive, and hex-short enough
// to read in exports.
func TestDeriveTraceID(t *testing.T) {
	a, b := DeriveTraceID(1), DeriveTraceID(1)
	if a != b {
		t.Errorf("DeriveTraceID not deterministic: %q vs %q", a, b)
	}
	if DeriveTraceID(2) == a {
		t.Error("DeriveTraceID ignores the seed")
	}
	if len(a) == 0 || len(a) > 16 {
		t.Errorf("DeriveTraceID(1) = %q, want a short hex id", a)
	}
	for _, c := range a {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Errorf("DeriveTraceID(1) = %q contains non-hex %q", a, c)
		}
	}
}
