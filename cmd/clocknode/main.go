// Command clocknode is a real network node of a clock-synchronization
// cluster: it exchanges timestamped probes with its peers over TCP,
// reports per-link delay statistics to the coordinator, and prints the
// correction it receives together with the optimal guaranteed precision.
//
// A 2-node cluster on one machine:
//
//	clocknode -id 0 -n 2 -listen 127.0.0.1:9000 -maxdelay 0.5
//	clocknode -id 1 -n 2 -listen 127.0.0.1:9001 -maxdelay 0.5 \
//	          -peers 0=127.0.0.1:9000 -coordinator 127.0.0.1:9000 \
//	          -offset 0.25
//
// The -offset flag injects an artificial clock skew for demonstrations;
// omit it in real deployments, where the hardware clock supplies the
// unknown skew.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/netsync"
	"clocksync/internal/obs"
	"clocksync/internal/round"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clocknode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clocknode", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this node's id in [0, n)")
		n        = fs.Int("n", 0, "cluster size")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address")
		peersArg = fs.String("peers", "", "comma-separated peers to probe: id=host:port,...")
		coord    = fs.String("coordinator", "", "coordinator address (empty when this node coordinates)")
		coordID  = fs.Int("coordid", 0, "coordinator node id")
		maxDelay = fs.Float64("maxdelay", 0.5, "sound upper bound on one-way delay, seconds (0 = no upper bound)")
		probes   = fs.Int("probes", 8, "probe messages per peer")
		interval = fs.Duration("interval", 5*time.Millisecond, "probe spacing")
		offset   = fs.Duration("offset", 0, "artificial clock skew (demos)")
		jitter   = fs.Duration("jitter", 0, "artificial transmission jitter (demos)")
		timeout  = fs.Duration("timeout", 30*time.Second, "network wait bound")
		grace    = fs.Duration("report-grace", 0, "coordinator wait for missing reports before a degraded compute (0 = timeout)")
		centered = fs.Bool("centered", true, "use centered corrections")
		seed     = fs.Int64("seed", 1, "jitter randomness seed")
		authSeed = fs.Int64("auth-seed", 0, "derive per-node HMAC keys from this shared seed (0 = unauthenticated; every node must pass the same value). DEMO-GRADE ONLY: the seed is visible in process listings and brute-forceable; deployments should use -auth-keys")
		authKeys = fs.String("auth-keys", "", "load the HMAC keyring from this file: one id=hex line per node, covering every id in [0, n)")
		logLevel = fs.String("log", "off", "structured log level: off, debug, info, warn or error")
		logJSON  = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
		metrics  = fs.String("metrics-addr", "", "serve /metrics, /healthz, /debug/rounds and /debug/pprof on this address")
		tracePth = fs.String("trace", "", "write this node's round trace (coordinator: the reassembled cluster trace) as JSON to this file")
		traceChr = fs.String("trace-chrome", "", "write the round trace in Chrome trace_event format (opens in Perfetto) to this file")
		session  = fs.String("session", "", "session label for metrics and the flight recorder")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.EnableLogging(os.Stderr, *logLevel, *logJSON); err != nil {
		return err
	}
	if *metrics != "" {
		srv, err := obs.Serve(*metrics, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "clocknode: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *n < 1 {
		return fmt.Errorf("missing -n (cluster size)")
	}
	peers, err := parsePeers(*peersArg)
	if err != nil {
		return err
	}
	links, err := clusterLinks(*n, *maxDelay)
	if err != nil {
		return err
	}
	cfg := netsync.Config{
		ID:              model.ProcID(*id),
		N:               *n,
		Listen:          *listen,
		Peers:           peers,
		Coordinator:     model.ProcID(*coordID),
		CoordinatorAddr: *coord,
		Links:           links,
		Probes:          *probes,
		Interval:        *interval,
		ClockOffset:     *offset,
		Jitter:          *jitter,
		Seed:            *seed,
		Timeout:         *timeout,
		ReportGrace:     *grace,
		Centered:        *centered,
		Session:         *session,
	}
	if *tracePth != "" || *traceChr != "" {
		cfg.Trace = obs.NewTrace(fmt.Sprintf("clocknode-%d", *id))
	}
	switch {
	case *authKeys != "" && *authSeed != 0:
		return fmt.Errorf("-auth-seed and -auth-keys are mutually exclusive")
	case *authKeys != "":
		keys, err := loadKeyring(*authKeys, *n)
		if err != nil {
			return err
		}
		cfg.Keys = keys
	case *authSeed != 0:
		cfg.Keys = round.DeriveKeys(*n, *authSeed)
	}
	node, err := netsync.Start(cfg)
	if err != nil {
		return err
	}
	defer node.Shutdown()
	fmt.Printf("clocknode %d/%d listening on %s\n", *id, *n, node.Addr())

	out, err := node.Wait(*timeout)
	if err != nil {
		obs.SetHealthFor(*session, obs.Health{Err: err.Error(), Precision: -1})
		return err
	}
	publishHealth(out, *session)
	fmt.Printf("correction: %+.6g s (add to the local clock)\n", out.Correction)
	fmt.Printf("precision:  %.6g s (optimal guaranteed bound, all pairs)\n", out.Precision)
	if line := degradedLine(out); line != "" {
		fmt.Println(line)
	}
	st := node.Stats()
	fmt.Printf("network: %d dials (%d retries, %d failures), %d probes sent, %d received\n",
		st.Dials, st.DialRetries, st.DialFailures, st.ProbesSent, st.ProbesReceived)
	if st.AuthFailures > 0 {
		fmt.Printf("auth: %d frame(s) rejected by MAC verification\n", st.AuthFailures)
	}
	if st.ProtocolErrors > 0 {
		fmt.Printf("protocol: %d invalid frame(s) dropped\n", st.ProtocolErrors)
	}
	if *tracePth != "" {
		if err := writeExport(*tracePth, cfg.Trace.WriteJSON); err != nil {
			return err
		}
	}
	if *traceChr != "" {
		if err := writeExport(*traceChr, cfg.Trace.WriteChrome); err != nil {
			return err
		}
	}
	return nil
}

// degradedLine explains a degraded outcome in one line, "" for a clean
// one: the missing and the excised reporters, each when there are any,
// and the ids of the synchronized component the precision covers.
func degradedLine(out *netsync.Outcome) string {
	if !out.Degraded {
		return ""
	}
	var b strings.Builder
	b.WriteString("DEGRADED: ")
	if len(out.Missing) > 0 {
		fmt.Fprintf(&b, "missing reports from %v; ", out.Missing)
	}
	if len(out.Excised) > 0 {
		fmt.Fprintf(&b, "reports from %v excised; ", out.Excised)
	}
	var synced []int
	for p, ok := range out.Synced {
		if ok {
			synced = append(synced, p)
		}
	}
	fmt.Fprintf(&b, "the precision covers only the synchronized component %v", synced)
	return b.String()
}

// writeExport dumps one trace export (JSON or Chrome trace_event) to path.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// publishHealth mirrors this node's outcome into the /healthz endpoint,
// keyed by the session label so one process can report several runs.
func publishHealth(out *netsync.Outcome, session string) {
	h := obs.Health{Degraded: out.Degraded, Missing: len(out.Missing), Precision: out.Precision}
	for _, ok := range out.Synced {
		if ok {
			h.Synced++
		}
	}
	if out.Synced == nil && !out.Degraded {
		h.Synced = len(out.Corrections)
	}
	h.Applied = h.Synced
	obs.SetHealthFor(session, h)
}

// loadKeyring reads an HMAC keyring file for an n-node cluster: one
// "id=hex" line per node, blank lines and #-comments ignored. Ids outside
// [0, n) and repeated ids are errors; netsync.Config validation rejects a
// keyring that leaves an id without a key.
func loadKeyring(path string, n int) (round.Keyring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-auth-keys: %w", err)
	}
	keys := make(round.Keyring, n)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kv := strings.SplitN(line, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("-auth-keys %s:%d: malformed line %q (want id=hex)", path, i+1, line)
		}
		id, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, fmt.Errorf("-auth-keys %s:%d: bad node id %q: %v", path, i+1, kv[0], err)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("-auth-keys %s:%d: node id %d out of range [0,%d)", path, i+1, id, n)
		}
		key, err := hex.DecodeString(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, fmt.Errorf("-auth-keys %s:%d: bad hex key for id %d: %v", path, i+1, id, err)
		}
		if keys[id] != nil {
			return nil, fmt.Errorf("-auth-keys %s:%d: duplicate key for id %d", path, i+1, id)
		}
		keys[id] = key
	}
	return keys, nil
}

// parsePeers parses "id=addr,id=addr".
func parsePeers(s string) (map[model.ProcID]string, error) {
	peers := make(map[model.ProcID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("malformed peer id %q: %v", kv[0], err)
		}
		if _, dup := peers[model.ProcID(id)]; dup {
			return nil, fmt.Errorf("duplicate peer id %d", id)
		}
		peers[model.ProcID(id)] = kv[1]
	}
	return peers, nil
}

// clusterLinks declares symmetric [0, maxDelay] bounds on every pair
// (maxDelay <= 0 selects the no-bounds model).
func clusterLinks(n int, maxDelay float64) ([]core.Link, error) {
	var a delay.Assumption
	if maxDelay > 0 {
		b, err := delay.SymmetricBounds(0, maxDelay)
		if err != nil {
			return nil, err
		}
		a = b
	} else {
		a = delay.NoBounds()
	}
	links := make([]core.Link, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, core.Link{P: model.ProcID(i), Q: model.ProcID(j), A: a})
		}
	}
	return links, nil
}
