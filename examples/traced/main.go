// traced: a 5-node authenticated netsync cluster with causal tracing
// across the wire, reassembled into ONE cluster-wide round trace at the
// coordinator and exported in Chrome trace_event format for Perfetto.
//
// Every node runs with its own obs.Trace. Probe frames carry the
// sender's probe-burst span id, so the receiver's "probe.recv" mark is
// parented across the process boundary; report frames additionally ship
// the reporter's full local span set, which the coordinator merges into
// its own trace. Span ids are allocated from per-node disjoint ranges,
// the cluster-wide trace id derives deterministically from the shared
// seed (no id-agreement handshake), and every span ultimately chains up
// to the well-known round root span (obs.RootSpanID) the coordinator
// records — the invariant this example verifies before exporting.
//
// Run it with:
//
//	go run ./examples/traced [-out trace.json] [-chrome trace.chrome.json]
//
// Load the Chrome export at https://ui.perfetto.dev or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/netsync"
	"clocksync/internal/obs"
	"clocksync/internal/round"
)

const (
	n    = 5
	seed = 7 // shared: drives the keyring AND the cluster trace id
)

func main() {
	outPath := flag.String("out", "", "write the reassembled cluster trace as JSON here (default: a temp file)")
	chromePath := flag.String("chrome", "", "write the Chrome trace_event export here (default: a temp file)")
	flag.Parse()

	if err := run(*outPath, *chromePath); err != nil {
		log.Fatal("traced: ", err)
	}
}

func run(outPath, chromePath string) error {
	bounds, err := delay.SymmetricBounds(0, 0.5)
	if err != nil {
		return err
	}
	var links []core.Link
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, core.Link{P: model.ProcID(i), Q: model.ProcID(j), A: bounds})
		}
	}

	// Per-node traces; the coordinator's accumulates the cluster trace as
	// reports ship the other nodes' spans in.
	traces := make([]*obs.Trace, n)
	for i := range traces {
		traces[i] = obs.NewTrace(fmt.Sprintf("traced-node-%d", i))
	}

	keys := round.DeriveKeys(n, seed)
	offsets := []time.Duration{0, 40, -25, 90, 15} // milliseconds, injected skew
	cfgs := make([]netsync.Config, n)
	for i := range cfgs {
		cfgs[i] = netsync.Config{
			ID:          model.ProcID(i),
			N:           n,
			Listen:      "127.0.0.1:0",
			Coordinator: 0,
			Links:       links,
			Probes:      4,
			Interval:    2 * time.Millisecond,
			ClockOffset: offsets[i] * time.Millisecond,
			Jitter:      time.Millisecond,
			Seed:        seed,
			Timeout:     10 * time.Second,
			Centered:    true,
			Keys:        keys,
			Trace:       traces[i],
			Session:     "traced",
		}
	}

	// Start the coordinator first; every later node probes all nodes
	// already up and reports to the coordinator.
	nodes := make([]*netsync.Node, n)
	coord, err := netsync.Start(cfgs[0])
	if err != nil {
		return fmt.Errorf("start coordinator: %w", err)
	}
	nodes[0] = coord
	defer coord.Shutdown()
	addrs := map[model.ProcID]string{0: coord.Addr()}
	for i := 1; i < n; i++ {
		peers := make(map[model.ProcID]string, i)
		for j := 0; j < i; j++ {
			peers[model.ProcID(j)] = addrs[model.ProcID(j)]
		}
		cfgs[i].Peers = peers
		cfgs[i].CoordinatorAddr = coord.Addr()
		node, err := netsync.Start(cfgs[i])
		if err != nil {
			return fmt.Errorf("start node %d: %w", i, err)
		}
		nodes[i] = node
		defer node.Shutdown()
		addrs[model.ProcID(i)] = node.Addr()
	}

	for i, node := range nodes {
		out, err := node.Wait(10 * time.Second)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if i == 0 {
			fmt.Printf("traced: %d-node keyed cluster synchronized, precision %.6g s\n", n, out.Precision)
		}
		fmt.Printf("  node %d: correction %+.6g s\n", i, out.Correction)
	}

	// The coordinator's trace now holds the whole round. Verify the
	// causal invariant: every probe/report span — local or shipped over
	// the wire — chains up to the round root.
	cluster := traces[0]
	fmt.Printf("\ncluster trace %s: %d spans\n", cluster.TraceID(), cluster.Len())
	if want := netsync.DeriveTraceID(seed); cluster.TraceID() != want {
		return fmt.Errorf("trace id %q, want the seed-derived %q", cluster.TraceID(), want)
	}
	checked, err := verifyAncestry(cluster.Spans())
	if err != nil {
		return err
	}
	fmt.Printf("causality: %d probe/report spans all chain to the round root\n", checked)

	if outPath == "" {
		outPath = filepath.Join(os.TempDir(), "clocksync-traced.json")
	}
	if chromePath == "" {
		chromePath = filepath.Join(os.TempDir(), "clocksync-traced.chrome.json")
	}
	if err := writeFile(outPath, cluster.WriteJSON); err != nil {
		return err
	}
	if err := writeFile(chromePath, cluster.WriteChrome); err != nil {
		return err
	}
	fmt.Printf("trace JSON:   %s\nchrome trace: %s (open at ui.perfetto.dev)\n", outPath, chromePath)
	return nil
}

// verifyAncestry walks every probe and report span's parent chain and
// fails unless it reaches obs.RootSpanID. It returns how many spans were
// checked and demands traffic from every non-coordinator node, so a
// silently empty trace cannot pass.
func verifyAncestry(spans []obs.Span) (int, error) {
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	rootSeen := false
	for _, s := range spans {
		if s.ID != 0 {
			byID[s.ID] = s
		}
		if s.ID == obs.RootSpanID {
			rootSeen = true
		}
	}
	if !rootSeen {
		return 0, fmt.Errorf("no round root span (id %d) in the cluster trace", obs.RootSpanID)
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
				return 0, fmt.Errorf("span %q (proc %d, id %#x) does not chain to the round root", s.Phase, s.Proc, uint64(s.ID))
			}
			if hops++; hops > len(spans) {
				return 0, fmt.Errorf("parent cycle at span %q (id %#x)", s.Phase, uint64(s.ID))
			}
			id = sp.Parent
		}
	}
	for p := 1; p < n; p++ {
		if !reporters[p] {
			return 0, fmt.Errorf("no report.send span from node %d in the cluster trace", p)
		}
	}
	return checked, nil
}

// writeFile dumps one export to path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
