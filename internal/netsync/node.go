package netsync

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/round"
	"clocksync/internal/trace"
)

// Connection-lifecycle observability: every event counts into the node's
// own NetStats (inspect with (*Node).Stats) and into the process-wide
// obs default registry; the logger is a nop unless obs.SetLogger ran.
var (
	nLog = obs.For("netsync")

	gDials         = obs.Default.Counter("netsync.dials")
	gDialRetries   = obs.Default.Counter("netsync.dial.retries")
	gDialFailures  = obs.Default.Counter("netsync.dial.failures")
	gReconnects    = obs.Default.Counter("netsync.reconnects")
	gProbesSent    = obs.Default.Counter("netsync.probes.sent")
	gProbeSendErrs = obs.Default.Counter("netsync.probes.senderrors")
	gProbesRecv    = obs.Default.Counter("netsync.probes.received")
	gReports       = obs.Default.Counter("netsync.reports.received")
	gDupReports    = obs.Default.Counter("netsync.reports.duplicate")
	gLateReports   = obs.Default.Counter("netsync.reports.late")
	gDeadlines     = obs.Default.Counter("netsync.deadline.expirations")
	gGraceFires    = obs.Default.Counter("netsync.grace.fires")
	gAuthFailures  = obs.Default.Counter("netsync.auth.failures")
	gProtoErrors   = obs.Default.Counter("netsync.protocol.errors")
)

// netCounters tracks one node's connection-lifecycle events (atomic:
// probing, serving and reporting run on separate goroutines).
type netCounters struct {
	dials, dialRetries, dialFailures, reconnects   atomic.Int64
	probesSent, probeSendErrors, probesReceived    atomic.Int64
	reportsReceived, duplicateReports, lateReports atomic.Int64
	deadlineExpirations, graceFires                atomic.Int64
	authFailures, protocolErrors                   atomic.Int64
}

// NetStats is a point-in-time snapshot of a node's connection-lifecycle
// counters — events that were previously invisible (silent retries,
// reconnects, expired deadlines).
type NetStats struct {
	// Dials counts successful TCP connects; DialRetries the backoff
	// retries behind them; DialFailures the peers given up on after
	// DialAttempts tries.
	Dials, DialRetries, DialFailures int64
	// Reconnects counts probe/report streams re-established after
	// breaking mid-flight.
	Reconnects int64
	// Probe traffic on this node's side of each stream.
	ProbesSent, ProbeSendErrors, ProbesReceived int64
	// Coordinator-side report accounting.
	ReportsReceived, DuplicateReports, LateReports int64
	// DeadlineExpirations counts read/write deadlines that fired;
	// GraceFires counts report-grace deadlines that forced a degraded
	// compute.
	DeadlineExpirations, GraceFires int64
	// AuthFailures counts frames rejected in a keyed cluster because the
	// claimed origin had no key or the MAC did not verify — probes are
	// dropped, reports are treated as loss.
	AuthFailures int64
	// ProtocolErrors counts well-formed frames that were invalid in
	// context — an unexpected type, a report to a non-coordinator, an
	// out-of-range origin or sender, a malformed report — each of which
	// closes the offending connection instead of failing the node.
	ProtocolErrors int64
}

// Stats snapshots the node's lifecycle counters.
func (n *Node) Stats() NetStats {
	return NetStats{
		Dials:               n.stats.dials.Load(),
		DialRetries:         n.stats.dialRetries.Load(),
		DialFailures:        n.stats.dialFailures.Load(),
		Reconnects:          n.stats.reconnects.Load(),
		ProbesSent:          n.stats.probesSent.Load(),
		ProbeSendErrors:     n.stats.probeSendErrors.Load(),
		ProbesReceived:      n.stats.probesReceived.Load(),
		ReportsReceived:     n.stats.reportsReceived.Load(),
		DuplicateReports:    n.stats.duplicateReports.Load(),
		LateReports:         n.stats.lateReports.Load(),
		DeadlineExpirations: n.stats.deadlineExpirations.Load(),
		GraceFires:          n.stats.graceFires.Load(),
		AuthFailures:        n.stats.authFailures.Load(),
		ProtocolErrors:      n.stats.protocolErrors.Load(),
	}
}

// noteNetErr classifies a connection error: expired read/write deadlines
// feed the deadline counter.
func (n *Node) noteNetErr(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		n.stats.deadlineExpirations.Add(1)
		gDeadlines.Inc()
	}
}

// Config describes one node of a cluster.
type Config struct {
	// ID is this node's dense index in [0, N).
	ID model.ProcID
	// N is the cluster size.
	N int
	// Listen is the address to listen on (use "127.0.0.1:0" for tests).
	Listen string
	// Peers maps neighbor ids to their listen addresses. Probes flow to
	// every peer listed here; list both directions' neighbors.
	Peers map[model.ProcID]string
	// Coordinator is the id of the collecting node.
	Coordinator model.ProcID
	// CoordinatorAddr is its address (unused on the coordinator itself).
	CoordinatorAddr string
	// Links carries the per-link delay assumptions; only the coordinator
	// uses them (global configuration, as in any deployment).
	Links []core.Link
	// Probes is the number of probe messages sent to each peer.
	Probes int
	// Interval separates consecutive probes.
	Interval time.Duration
	// ClockOffset emulates this node's unknown clock skew. In a real
	// deployment the hardware clock supplies it implicitly; here it is
	// ground truth for tests.
	ClockOffset time.Duration
	// Jitter adds a uniform [0, Jitter) artificial transmission delay to
	// every probe, making delays visible above localhost noise. The
	// declared assumptions must cover it.
	Jitter time.Duration
	// Seed drives the jitter randomness.
	Seed int64
	// Timeout bounds every network wait, reads and writes alike
	// (default 10s).
	Timeout time.Duration
	// ReportGrace is how long the coordinator waits for missing reports
	// after its own report is ready before computing from whichever subset
	// arrived (degraded quorum). Default: Timeout. A dead node therefore
	// delays the cluster by at most ReportGrace instead of wedging it.
	ReportGrace time.Duration
	// DialAttempts is the number of connection attempts per peer before
	// the peer is declared dead (default 4).
	DialAttempts int
	// DialBackoff is the initial retry backoff, doubled per attempt with
	// jitter (default 50ms).
	DialBackoff time.Duration
	// DialMaxBackoff caps the backoff growth (default 1s).
	DialMaxBackoff time.Duration
	// ReportDelay is the minimum node age before the incoming statistics
	// are snapshotted and reported: it gives peers (possibly started
	// later) time to finish probing. Default 500ms + Probes*Interval.
	ReportDelay time.Duration
	// Centered selects centered corrections at the coordinator.
	Centered bool
	// Trace, when non-nil, records this node's causal spans: the probe
	// burst, per-peer dials, the report exchange, and receive marks
	// parented across the wire to the sending node's spans. On the
	// coordinator the trace additionally carries the round root span
	// (obs.RootSpanID), the collect/compute phases, and — reassembled
	// from the Spans shipped inside report frames — every reporter's
	// local spans, yielding one cluster-wide round trace exportable as
	// obs.Trace JSON or Chrome trace_event. The trace's correlation id is
	// set to DeriveTraceID(Seed) at Start. Span Start values are each
	// process's wall clock relative to its own trace origin, so cross-host
	// timelines align only as well as the hosts' wall clocks do.
	Trace *obs.Trace
	// Round labels this run's spans, wire trace context and
	// flight-recorder entry (multi-round deployments bump it per round).
	Round int
	// Session, when non-empty, labels the coordinator's quality metrics
	// (session="...") and the flight-recorder entry, keeping concurrent
	// clusters in one process distinguishable.
	Session string
	// Keys is the cluster's keyring (round.Keyring), one non-empty key per
	// id in [0, N). When set, this node signs every frame it originates
	// with Keys[ID]: probes, its report and, on the coordinator, results.
	// A frame whose MAC does not verify under its claimed origin's key is
	// counted in netsync.auth.failures and dropped: a report as loss, a
	// probe as a lost probe, a result by failing the node — a forgery
	// degrades the outcome instead of corrupting it. Replaying a captured
	// probe only re-presents a slower observation, the power of delaying
	// traffic, which no keyring prevents. Nil keeps the unauthenticated
	// wire format. Distribute the keyring out of band.
	Keys round.Keyring
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Probes == 0 {
		c.Probes = 4
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.ReportDelay == 0 {
		c.ReportDelay = 500*time.Millisecond + time.Duration(c.Probes)*c.Interval
	}
	if c.ReportGrace == 0 {
		c.ReportGrace = c.Timeout
	}
	if c.DialAttempts == 0 {
		c.DialAttempts = 4
	}
	if c.DialBackoff == 0 {
		c.DialBackoff = 50 * time.Millisecond
	}
	if c.DialMaxBackoff == 0 {
		c.DialMaxBackoff = time.Second
	}
}

func (c *Config) validate() error {
	if c.N < 1 || int(c.ID) < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("netsync: id %d out of range [0,%d)", c.ID, c.N)
	}
	if int(c.Coordinator) < 0 || int(c.Coordinator) >= c.N {
		return fmt.Errorf("netsync: coordinator %d out of range", c.Coordinator)
	}
	if c.ID != c.Coordinator && c.CoordinatorAddr == "" {
		return fmt.Errorf("netsync: node %d needs the coordinator address", c.ID)
	}
	for id := range c.Peers {
		if int(id) < 0 || int(id) >= c.N || id == c.ID {
			return fmt.Errorf("netsync: invalid peer id %d", id)
		}
	}
	if c.Keys != nil {
		if err := c.Keys.Validate(c.N); err != nil {
			return fmt.Errorf("netsync: %w", err)
		}
	}
	return nil
}

// Outcome is a node's view of the finished synchronization.
type Outcome struct {
	// Correction is this node's clock correction: corrected clock =
	// Clock() + Correction.
	Correction float64
	// Precision is the coordinator-computed optimal guaranteed precision
	// of the coordinator's synchronized component.
	Precision float64
	// Corrections is the full vector (as disseminated).
	Corrections []float64
	// Degraded is set when the coordinator computed without the full
	// report set or when the reporting subgraph split.
	Degraded bool
	// Missing lists the nodes whose reports never arrived.
	Missing []model.ProcID
	// Excised lists the nodes whose reports the coordinator's consistency
	// checks threw out (internal/round).
	Excised []model.ProcID
	// Synced flags membership in the coordinator's synchronized
	// component; the precision guarantee covers exactly these nodes.
	Synced []bool
}

// Node is one running cluster member. Create with Start, collect with
// Wait, always Shutdown.
type Node struct {
	cfg      Config
	epoch    time.Time
	born     time.Time
	listener net.Listener
	rng      *rand.Rand

	stats netCounters

	mu         sync.Mutex
	incoming   map[model.ProcID]trace.DirStats // per-peer incoming probe stats
	round      *round.Round                    // coordinator: the round collecting reports
	pending    []*conn                         // coordinator: report conns awaiting results
	computed   bool                            // coordinator: result already produced
	result     *Message                        // coordinator: stored result for late reports
	grace      *time.Timer                     // coordinator: report deadline
	roundEnd   func()                          // coordinator: closes the round root span
	collectEnd func()                          // coordinator: closes the collect span

	wg       sync.WaitGroup
	stopping chan struct{}
	outcome  chan Outcome
	errs     chan error
}

// Start validates the config, binds the listener and launches the node's
// goroutines. The returned node is running; call Wait for the outcome and
// Shutdown to release resources.
func Start(cfg Config) (*Node, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netsync: listen: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		epoch:    time.Unix(0, 0),
		born:     time.Now(),
		listener: ln,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID)<<32)),
		incoming: make(map[model.ProcID]trace.DirStats),
		stopping: make(chan struct{}),
		outcome:  make(chan Outcome, 1),
		errs:     make(chan error, 8),
	}
	if cfg.ID == cfg.Coordinator {
		// The consistency checks always run: an honest report passes all of
		// them, and reports arrive point to point with duplicates rejected,
		// so there is no equivocation window to wait out. Quality telemetry
		// rides on the solve: the coordinator is the one place that sees the
		// whole instance.
		n.round = round.New(round.Config{N: cfg.N, Links: cfg.Links, Excision: true,
			Solve: core.Options{Root: int(cfg.Coordinator), Centered: cfg.Centered,
				Quality: true, QualityLabel: cfg.Session}})
	}
	if cfg.Trace != nil {
		cfg.Trace.SetTraceID(DeriveTraceID(cfg.Seed))
		if cfg.ID == cfg.Coordinator {
			// The round root: the well-known ancestor every participant
			// parents its top-level spans under, no handshake needed.
			n.roundEnd = cfg.Trace.StartSpan("round", -1, cfg.Round, obs.RootSpanID, 0)
		}
	}
	n.wg.Add(2)
	n.goSafe(n.acceptLoop)
	n.goSafe(n.run)
	return n, nil
}

// goSafe runs fn on its own goroutine, converting a panic into a node
// failure surfaced on the errs channel instead of crashing the whole
// process. All node goroutines must launch through it: the baregoroutine
// analyzer (internal/analysis) flags naked go statements in this package.
func (n *Node) goSafe(fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				n.fail(fmt.Errorf("netsync: node %d: goroutine panic: %v", n.cfg.ID, r))
			}
		}()
		fn()
	}()
}

// Addr returns the bound listen address (resolves ":0" ports).
func (n *Node) Addr() string { return n.listener.Addr().String() }

// Clock returns this node's clock reading: seconds since the epoch plus
// the configured offset.
func (n *Node) Clock() float64 {
	return time.Since(n.epoch).Seconds() + n.cfg.ClockOffset.Seconds()
}

// Wait blocks until the node has applied a correction, a node goroutine
// failed, or the timeout expires.
func (n *Node) Wait(timeout time.Duration) (*Outcome, error) {
	select {
	case out := <-n.outcome:
		return &out, nil
	case err := <-n.errs:
		return nil, err
	case <-time.After(timeout):
		return nil, fmt.Errorf("netsync: node %d timed out waiting for the result", n.cfg.ID)
	}
}

// Shutdown stops the node and waits for its goroutines to exit. Parked
// report connections (if the result never materialized) are closed.
func (n *Node) Shutdown() {
	select {
	case <-n.stopping:
	default:
		close(n.stopping)
	}
	_ = n.listener.Close()
	n.mu.Lock()
	if n.grace != nil {
		n.grace.Stop()
	}
	for _, pc := range n.pending {
		_ = pc.close()
	}
	n.pending = nil
	n.mu.Unlock()
	n.wg.Wait()
}

func (n *Node) fail(err error) {
	if err == nil {
		return
	}
	select {
	case n.errs <- err:
	default:
	}
}

// acceptLoop serves inbound connections: probe streams from peers and, on
// the coordinator, report connections from every node.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		raw, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.stopping:
				return // normal shutdown
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			n.fail(fmt.Errorf("netsync: accept: %w", err))
			return
		}
		handlers.Add(1)
		n.goSafe(func() {
			defer handlers.Done()
			n.serve(newConn(raw))
		})
	}
}

// noteAuthFailure counts one frame rejected by authentication.
func (n *Node) noteAuthFailure(kind string, origin model.ProcID, c *conn) {
	n.stats.authFailures.Add(1)
	gAuthFailures.Inc()
	nLog.Debug(kind+" rejected by authentication", "node", n.cfg.ID, "origin", origin,
		"remote", c.raw.RemoteAddr().String())
}

// noteProtoErr counts a well-formed frame that is invalid in context. The
// caller closes the connection; the node itself keeps running — a single
// hostile or confused peer must not be able to terminate it.
func (n *Node) noteProtoErr(c *conn, format string, args ...any) {
	n.stats.protocolErrors.Add(1)
	gProtoErrors.Inc()
	nLog.Debug("protocol error: closing connection", "node", n.cfg.ID,
		"remote", c.raw.RemoteAddr().String(), "err", fmt.Sprintf(format, args...))
}

// sign stamps a frame's MAC under this node's key in a keyed cluster.
func (n *Node) sign(m *Message) error {
	if n.cfg.Keys == nil {
		return nil
	}
	body, err := frameBody(m)
	if err != nil {
		return err
	}
	m.MAC = round.Sign(n.cfg.Keys[n.cfg.ID], body)
	return nil
}

// verify authenticates one inbound frame under the claimed origin's key.
func verify(v *round.Verifier, origin model.ProcID, m *Message) bool {
	body, err := frameBody(m)
	return err == nil && v.Verify(origin, body, m.MAC)
}

// serve handles one inbound connection until EOF or shutdown.
func (n *Node) serve(c *conn) {
	auth := round.NewVerifier(n.cfg.Keys) // a verifier serves one goroutine
	parked := false
	defer func() {
		if !parked {
			_ = c.close()
		}
	}()
	for {
		m, err := c.recv(n.cfg.Timeout)
		if err != nil {
			n.noteNetErr(err)
			return // EOF, deadline or shutdown: connection done
		}
		switch m.Type {
		case "probe":
			recvClock := n.Clock()
			if n.cfg.Keys != nil && !verify(auth, m.From, m) {
				// Forged or tampered probe: drop it like a lost message.
				n.noteAuthFailure("probe", m.From, c)
				return
			}
			if int(m.From) < 0 || int(m.From) >= n.cfg.N || m.From == n.cfg.ID {
				// A probe from no peer would make this node's own report
				// malformed.
				n.noteProtoErr(c, "probe from invalid sender %d", m.From)
				return
			}
			n.stats.probesReceived.Add(1)
			gProbesRecv.Inc()
			if m.Span != 0 {
				// Cross-wire causal link: the receive mark's parent is the
				// sender's probe span, shipped in the frame (and MAC-covered
				// in keyed clusters).
				n.cfg.Trace.Mark("probe.recv", int(n.cfg.ID), m.Round, m.Span)
			}
			n.mu.Lock()
			st, ok := n.incoming[m.From]
			if !ok {
				st = trace.NewDirStats()
			}
			st.Add(recvClock - m.SendClock) // Lemma 6.1 on a real socket
			n.incoming[m.From] = st
			n.mu.Unlock()
		case "report":
			if n.cfg.ID != n.cfg.Coordinator {
				n.noteProtoErr(c, "non-coordinator %d received a report", n.cfg.ID)
				return
			}
			if int(m.Origin) < 0 || int(m.Origin) >= n.cfg.N {
				// An out-of-range origin would inflate the report quorum
				// (or, with links attached, poison the table build); it can
				// never be legitimate, keyed or not.
				n.noteProtoErr(c, "report origin %d out of range [0,%d)", m.Origin, n.cfg.N)
				return
			}
			if n.cfg.Keys != nil && !verify(auth, m.Origin, m) {
				// Forged or tampered report: count it and treat it as loss.
				// The origin's links stay constrained by the honest
				// endpoints' statistics, exactly like a report that never
				// arrived.
				n.noteAuthFailure("report", m.Origin, c)
				return
			}
			n.stats.reportsReceived.Add(1)
			gReports.Inc()
			nLog.Debug("report received", "node", n.cfg.ID, "origin", m.Origin,
				"links", len(m.Links), "remote", c.raw.RemoteAddr().String())
			if n.cfg.Trace != nil {
				// Reassemble the cluster trace: merge the reporter's local
				// spans (ids are collision-free across nodes) and mark the
				// receipt, parented to the reporter's report.send span.
				if m.Span != 0 {
					n.cfg.Trace.Mark("report.recv", int(m.Origin), m.Round, m.Span)
				}
				n.cfg.Trace.AddSpans(m.Spans)
			}
			// Ownership of the connection moves to the pending list; it is
			// answered and closed when the result is ready.
			n.mu.Lock()
			parked = n.absorbReportLocked(m.Origin, roundLinks(m.Links), c)
			n.mu.Unlock()
			return
		default:
			// A well-formed frame of a type this side never expects (e.g. a
			// "result" pushed at a listener). Hostile input: close the
			// connection, keep the node.
			n.noteProtoErr(c, "unexpected %q frame on an inbound connection", m.Type)
			return
		}
	}
}

// run drives the node's active side: probing, reporting, applying.
func (n *Node) run() {
	defer n.wg.Done()
	tr := n.cfg.Trace
	probeSpan, endProbe := tr.StartChild("probe", int(n.cfg.ID), n.cfg.Round, obs.RootSpanID)
	err := n.probePeers(probeSpan)
	endProbe()
	if err != nil {
		n.fail(err)
		return
	}
	// Hold the report until peers (possibly started later) have had time
	// to finish their own probing toward us.
	if wait := n.cfg.ReportDelay - time.Since(n.born); wait > 0 {
		select {
		case <-time.After(wait):
		case <-n.stopping:
			return
		}
	}
	if n.cfg.ID == n.cfg.Coordinator {
		// Register our own readiness; the links are snapshotted live at
		// compute time, so late probes into the coordinator still count.
		// From here on, missing reports hold the result up for at most
		// ReportGrace: the deadline computes from whichever subset arrived.
		n.mu.Lock()
		if !n.computed {
			n.collectEnd = tr.StartSpan("collect", -1, n.cfg.Round, tr.NewSpanID(-1), obs.RootSpanID)
		}
		n.absorbReportLocked(n.cfg.ID, nil, nil)
		if !n.computed {
			n.grace = time.AfterFunc(n.cfg.ReportGrace, n.reportDeadline)
		}
		n.mu.Unlock()
		return
	}

	// Snapshot this node's incoming statistics as its report.
	n.mu.Lock()
	report := Message{Type: "report", Origin: n.cfg.ID}
	for from, st := range n.incoming {
		report.Links = append(report.Links, LinkStats{
			From: from, To: n.cfg.ID, Count: st.Count, Min: st.Min, Max: st.Max,
		})
	}
	n.mu.Unlock()
	if tr != nil {
		// Attach the trace context and ship every span recorded so far
		// (dials, the probe burst, probe receipts) for the coordinator's
		// cluster-trace reassembly. Must precede signing: the MAC covers
		// these fields.
		report.TraceID = tr.TraceID()
		report.Round = n.cfg.Round
		report.Span = tr.Mark("report.send", int(n.cfg.ID), n.cfg.Round, obs.RootSpanID)
		report.Spans = tr.Spans()
	}
	if err := n.sign(&report); err != nil {
		n.fail(err)
		return
	}

	// The report connection retries the dial with backoff and, on a broken
	// stream, reconnects and resends once — a coordinator restart or a
	// dropped connection costs a retry, not the node.
	_, endReport := tr.StartChild("report", int(n.cfg.ID), n.cfg.Round, obs.RootSpanID)
	res, err := n.reportAndAwait(&report)
	endReport()
	if err != nil {
		n.fail(err)
		return
	}
	n.applyResult(res)
}

// reportAndAwait delivers the report to the coordinator and waits for the
// result, reconnecting once if the exchange breaks mid-flight. A result
// that fails authentication fails the exchange instead of being applied.
func (n *Node) reportAndAwait(report *Message) (*Message, error) {
	auth := round.NewVerifier(n.cfg.Keys)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			n.stats.reconnects.Add(1)
			gReconnects.Inc()
			nLog.Debug("report exchange broke; reconnecting", "node", n.cfg.ID,
				"addr", n.cfg.CoordinatorAddr, "err", lastErr)
		}
		c, err := n.dialRetry(n.cfg.CoordinatorAddr, "coordinator", obs.RootSpanID)
		if err != nil {
			return nil, fmt.Errorf("netsync: dial coordinator: %w", err)
		}
		if err := c.send(report, n.cfg.Timeout); err != nil {
			_ = c.close()
			n.noteNetErr(err)
			lastErr = fmt.Errorf("netsync: send report: %w", err)
			continue
		}
		res, err := c.recv(n.cfg.Timeout)
		_ = c.close()
		if err != nil {
			n.noteNetErr(err)
			lastErr = fmt.Errorf("netsync: await result: %w", err)
			continue
		}
		if n.cfg.Keys != nil && !verify(auth, n.cfg.Coordinator, res) {
			n.noteAuthFailure("result", n.cfg.Coordinator, c)
			return nil, fmt.Errorf("netsync: result frame failed authentication under coordinator %d's key", n.cfg.Coordinator)
		}
		return res, nil
	}
	return nil, lastErr
}

// reportDeadline fires when the coordinator's report grace expires: the
// computation proceeds with whichever reports arrived.
func (n *Node) reportDeadline() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.computed {
		return
	}
	n.stats.graceFires.Add(1)
	gGraceFires.Inc()
	nLog.Debug("report grace expired: computing from quorum",
		"node", n.cfg.ID, "reports", n.round.Reports(), "n", n.cfg.N)
	n.computeAndDisseminateLocked()
}

// dialRetry dials with exponential backoff and jitter; what labels the
// target ("coordinator", "peer 3") for counters and debug logs, parent
// the enclosing trace span for the recorded "dial" span. Called only
// from the run goroutine (it shares the node's rng).
func (n *Node) dialRetry(addr, what string, parent obs.SpanID) (*conn, error) {
	_, endDial := n.cfg.Trace.StartChild("dial", int(n.cfg.ID), n.cfg.Round, parent)
	defer endDial()
	backoff := n.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < n.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			n.stats.dialRetries.Add(1)
			gDialRetries.Inc()
			nLog.Debug("dial retry", "node", n.cfg.ID, "peer", what, "addr", addr,
				"attempt", attempt+1, "backoff", backoff, "err", lastErr)
			sleep := time.Duration(float64(backoff) * (0.5 + n.rng.Float64()))
			select {
			case <-time.After(sleep):
			case <-n.stopping:
				return nil, fmt.Errorf("netsync: node %d stopped while dialing %s", n.cfg.ID, addr)
			}
			backoff *= 2
			if backoff > n.cfg.DialMaxBackoff {
				backoff = n.cfg.DialMaxBackoff
			}
		}
		raw, err := net.DialTimeout("tcp", addr, n.cfg.Timeout)
		if err == nil {
			n.stats.dials.Add(1)
			gDials.Inc()
			nLog.Debug("dialed", "node", n.cfg.ID, "peer", what, "addr", addr, "attempt", attempt+1)
			return newConn(raw), nil
		}
		lastErr = err
	}
	n.stats.dialFailures.Add(1)
	gDialFailures.Inc()
	nLog.Debug("dial failed: giving up", "node", n.cfg.ID, "peer", what, "addr", addr,
		"attempts", n.cfg.DialAttempts, "err", lastErr)
	return nil, fmt.Errorf("netsync: dial %s: %d attempts: %w", addr, n.cfg.DialAttempts, lastErr)
}

// probePeers sends the timestamped probe bursts over per-peer
// connections. Probes across peers are interleaved round by round. A peer
// that cannot be reached — dial failure after retries, or a stream that
// breaks and cannot be re-established — is dropped, not fatal: its links
// simply carry no statistics and degrade to the assumption bounds.
func (n *Node) probePeers(span obs.SpanID) error {
	conns := make(map[model.ProcID]*conn, len(n.cfg.Peers))
	defer func() {
		for _, c := range conns {
			_ = c.close()
		}
	}()
	for id, addr := range n.cfg.Peers {
		c, err := n.dialRetry(addr, fmt.Sprintf("peer %d", id), span)
		if err != nil {
			continue // dead peer: skip it, keep the node alive
		}
		conns[id] = c
	}
	for round := 0; round < n.cfg.Probes; round++ {
		for id, c := range conns {
			if err := n.sendProbe(c, span); err != nil {
				// Broken stream: reconnect once and resend (with a fresh
				// timestamp — a stale stamp would inflate the measured
				// delay past the declared bounds).
				_ = c.close()
				n.stats.reconnects.Add(1)
				gReconnects.Inc()
				nLog.Debug("probe stream broke; reconnecting", "node", n.cfg.ID,
					"peer", id, "err", err)
				nc, derr := n.dialRetry(n.cfg.Peers[id], fmt.Sprintf("peer %d", id), span)
				if derr != nil {
					delete(conns, id)
					continue
				}
				conns[id] = nc
				if err := n.sendProbe(nc, span); err != nil {
					_ = nc.close()
					delete(conns, id)
				}
			}
		}
		select {
		case <-time.After(n.cfg.Interval):
		case <-n.stopping:
			return fmt.Errorf("netsync: node %d stopped during probing", n.cfg.ID)
		}
	}
	return nil
}

// sendProbe stamps and sends one probe, optionally holding it back by the
// configured artificial jitter (stamp first, then delay, exactly like a
// slow link). In a keyed cluster the probe carries a MAC so receivers can
// reject injected timestamps. span is the node's probe-burst span, sent
// as the frame's trace context so the receiver can parent its receive
// mark across the wire.
func (n *Node) sendProbe(c *conn, span obs.SpanID) error {
	sendClock := n.Clock()
	if n.cfg.Jitter > 0 {
		time.Sleep(time.Duration(n.rng.Float64() * float64(n.cfg.Jitter)))
	}
	m := &Message{Type: "probe", From: n.cfg.ID, SendClock: sendClock}
	if n.cfg.Trace != nil {
		m.TraceID = n.cfg.Trace.TraceID()
		m.Span = span
		m.Round = n.cfg.Round
	}
	if err := n.sign(m); err != nil {
		return err
	}
	err := c.send(m, n.cfg.Timeout)
	if err != nil {
		n.stats.probeSendErrors.Add(1)
		gProbeSendErrs.Inc()
		n.noteNetErr(err)
		return err
	}
	n.stats.probesSent.Add(1)
	gProbesSent.Inc()
	return nil
}

// absorbReportLocked hands one report to the round and, when the round is
// complete, computes and disseminates; the caller holds n.mu. conn is nil
// for the coordinator's own report. A report arriving after the deadline
// already computed is answered immediately with the stored result, so a
// slow node still receives its correction. A malformed report is a
// protocol error and is not stored, so its origin's genuine report is
// still accepted. It reports whether it took ownership of the connection.
func (n *Node) absorbReportLocked(origin model.ProcID, links []round.DirReport, c *conn) bool {
	if n.computed {
		n.stats.lateReports.Add(1)
		gLateReports.Inc()
		nLog.Debug("late report answered with stored result",
			"node", n.cfg.ID, "origin", origin)
		if c != nil {
			_ = c.send(n.result, n.cfg.Timeout)
			_ = c.close()
		}
		return true
	}
	if n.round.Has(origin) {
		n.stats.duplicateReports.Add(1)
		gDupReports.Inc()
		nLog.Debug("duplicate report rejected", "node", n.cfg.ID, "origin", origin)
		if c != nil {
			dup := &Message{Type: "result", Err: "duplicate report"}
			_ = n.sign(dup)
			_ = c.send(dup, n.cfg.Timeout)
			_ = c.close()
		}
		return true
	}
	if _, err := n.round.Accept(origin, links); err != nil {
		n.noteProtoErr(c, "%v", err)
		return false
	}
	if c != nil {
		n.pending = append(n.pending, c)
	}
	if n.round.Reports() == n.cfg.N {
		n.computeAndDisseminateLocked()
	}
	return true
}

// computeAndDisseminateLocked runs the coordinator round on whichever
// reports arrived, with this node's own live incoming statistics in place
// of its early snapshot, and answers every parked report connection.
// Caller holds n.mu.
func (n *Node) computeAndDisseminateLocked() {
	n.computed = true
	if n.grace != nil {
		n.grace.Stop()
	}
	if n.collectEnd != nil {
		n.collectEnd()
		n.collectEnd = nil
	}
	tr := n.cfg.Trace
	computeSpan, endCompute := tr.StartChild("compute", -1, n.cfg.Round, obs.RootSpanID)
	live := make([]round.DirReport, 0, len(n.incoming))
	for from, st := range n.incoming {
		live = append(live, round.DirReport{From: from, To: n.cfg.ID, Stats: st})
	}
	n.round.Set(n.cfg.ID, live)
	res := n.round.Solve(tr.ObserverChild(-1, n.cfg.Round, computeSpan))
	endCompute()

	msg := Message{Type: "result"}
	if res.Err != nil {
		msg.Err = res.Err.Error()
	} else {
		msg.Corrections, msg.Precision, msg.Degraded = res.Corrections, res.Precision, res.Degraded
		msg.Missing, msg.Excised, msg.Synced = res.Missing, res.Excised, res.Synced
	}
	// Signed once: the stored result also answers late reports.
	_ = n.sign(&msg)
	for _, pc := range n.pending {
		_ = pc.send(&msg, n.cfg.Timeout)
		_ = pc.close()
	}
	n.pending = nil
	n.result = &msg
	// File the round into the process flight recorder so it can be
	// replayed at /debug/rounds or dumped on degraded exit.
	rec := res.Record
	rec.Session, rec.Round = n.cfg.Session, n.cfg.Round
	rec.AuthFailures = int(n.stats.authFailures.Load())
	rec.WallSeconds = time.Since(n.born).Seconds()
	obs.Rounds.Record(rec)
	if n.roundEnd != nil {
		n.roundEnd()
		n.roundEnd = nil
	}
	if res.Err != nil {
		n.fail(res.Err)
		return
	}
	// Apply locally on the coordinator.
	n.applyResult(&msg)
}

// applyResult validates and publishes the outcome for this node.
func (n *Node) applyResult(m *Message) {
	if m.Err != "" {
		n.fail(fmt.Errorf("netsync: coordinator: %s", m.Err))
		return
	}
	if m.Type != "result" || int(n.cfg.ID) >= len(m.Corrections) {
		n.fail(fmt.Errorf("netsync: malformed result for node %d", n.cfg.ID))
		return
	}
	out := Outcome{
		Correction:  m.Corrections[n.cfg.ID],
		Precision:   m.Precision,
		Corrections: append([]float64(nil), m.Corrections...),
		Degraded:    m.Degraded,
		Missing:     append([]model.ProcID(nil), m.Missing...),
		Excised:     append([]model.ProcID(nil), m.Excised...),
		Synced:      append([]bool(nil), m.Synced...),
	}
	n.publishNodeMetrics()
	select {
	case n.outcome <- out:
	default:
	}
}

// publishNodeMetrics snapshots this node's lifecycle counters into
// per-node labeled gauges (netsync.node.*{node="<id>"}), so a /metrics
// scrape separates the nodes that the process-wide netsync.* counters
// aggregate. Called once per run at outcome time — cheap and idempotent.
func (n *Node) publishNodeMetrics() {
	s := n.Stats()
	id := strconv.Itoa(int(n.cfg.ID))
	set := func(name string, v int64) {
		obs.Default.Gauge(obs.Labeled("netsync.node."+name, "node", id)).Set(float64(v))
	}
	set("dials", s.Dials)
	set("probes.sent", s.ProbesSent)
	set("probes.received", s.ProbesReceived)
	set("reports.received", s.ReportsReceived)
	set("auth.failures", s.AuthFailures)
	set("protocol.errors", s.ProtocolErrors)
}
