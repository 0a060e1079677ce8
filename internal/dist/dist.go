// Package dist implements the distributed clock synchronization protocol
// sketched in Section 7 of the paper: a straightforward leader-based
// realization of the (otherwise centralized) correction computation.
//
// Phases, per processor, on its own clock:
//
//  1. Measure  [Warmup, Warmup+Window): burst-exchange Probes timestamped
//     probe messages with every neighbor.
//  2. Report   at clock Warmup+Window: summarize the *incoming* estimated
//     delays of every incident link (Lemma 6.1: d~ = receive clock - the
//     sender clock carried in the probe) and flood the summary. With
//     Retries > 0, the flood is repeated in round-stamped re-floods so
//     lossy links still converge.
//  3. Compute  at the leader, once all n reports are in — or, failing
//     that, at clock Warmup+Window+ReportGrace with whichever reports
//     arrived (quorum instead of wait-for-all): run the coordinator round
//     of internal/round (assemble the statistics table, restrict the link
//     set to the reporting subgraph, run GLOBAL ESTIMATES + SHIFTS) and
//     flood the corrections.
//  4. Apply    each processor picks its correction out of the result
//     flood. The result names the synchronized component (the processors
//     the precision actually covers), the missing reporters, and whether
//     the computation was degraded.
//
// Fault tolerance: crashed processors, partitioned links and lost floods
// (injectable via sim.Faults) degrade the outcome instead of wedging it.
// A report that never reaches the leader leaves its links constrained
// only by the surviving endpoint's statistics — Lemma 6.1's worst case
// under the configured assumption bounds — and processors outside the
// leader's sync component are excluded from the precision guarantee.
//
// Per the paper's own caveat, the result is optimal with respect to the
// measurement traffic only: the report and result floods themselves carry
// timing information the corrections do not exploit. The floods therefore
// travel as control traffic (sim.Env.SendControl): delivered like every
// other message, but not logged, so the execution Run and GossipRun
// return is the measurement execution, the probes alone, which is the one
// Lemma 6.1 reduces to the leader's table. Outcome.Delivered counts all
// deliveries. The package exists to demonstrate the end-to-end
// distributed flow and to quantify that caveat (experiment D-class); the
// centralized API remains the primary interface.
package dist

import (
	"fmt"
	"math"
	"sort"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/round"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// Protocol observability: process-wide counters in the obs default
// registry plus per-run sync-round traces via Config.Trace. The loggers
// are nops unless the application installs a sink (obs.SetLogger). The
// counters of the round itself (absorbed, missing and excised reports,
// computes) live in internal/round.
var (
	dLog = obs.For("dist")

	mProbesSent     = obs.Default.Counter("dist.probes.sent")
	mProbesRecv     = obs.Default.Counter("dist.probes.received")
	mProbesLate     = obs.Default.Counter("dist.probes.late")
	mReportsEmitted = obs.Default.Counter("dist.reports.emitted")
	mReportsLate    = obs.Default.Counter("dist.reports.late")
	mReportsAuth    = obs.Default.Counter("dist.reports.authfail")
	mReportRefloods = obs.Default.Counter("dist.reports.refloods")
	mResultRefloods = obs.Default.Counter("dist.results.refloods")
	mDeadlineFires  = obs.Default.Counter("dist.deadline.fires")
)

// Config parameterizes the protocol.
type Config struct {
	// Leader collects reports and computes corrections.
	Leader model.ProcID
	// Links carries the per-link delay assumptions (global configuration
	// knowledge, as in any deployed system).
	Links []core.Link
	// Probes is the number of measurement messages per link direction.
	Probes int
	// Spacing separates consecutive probes in clock time.
	Spacing float64
	// Warmup is the clock time of the first probe; it must exceed the
	// maximum start skew so no probe can arrive before its receiver
	// starts.
	Warmup float64
	// Window is the measurement duration: reports are sent at clock
	// Warmup+Window. Probes arriving later are ignored.
	Window float64
	// ReportGrace is the extra clock time past Warmup+Window after which
	// the leader computes corrections from whichever reports arrived,
	// instead of waiting for all n forever. Zero selects the default
	// (equal to Window); negative is invalid.
	ReportGrace float64
	// Retries is the number of round-stamped re-floods of each report
	// (spread across the grace window) and of the leader's result. Zero
	// disables re-flooding; lossless networks need none.
	Retries int
	// Centered selects centered corrections at the leader.
	Centered bool
	// Parallelism bounds the worker lanes of the correction computation
	// (0 = GOMAXPROCS, 1 = serial); results are identical for every value.
	Parallelism int
	// Trace optionally collects sync-round spans: per-processor probe
	// windows (simulated clock) and the leader's collect/compute phases
	// including the SHIFTS breakdown (wall clock). Nil records nothing.
	Trace *obs.Trace
	// Excision enables the coordinator round's consistency-check outlier
	// excision on every computing node (the leader, or every gossip
	// node): equivocating reporters and reports violating the Lemma 6.1
	// round-trip envelope are removed before the table is assembled, and
	// the quorum path recomputes without them. With excision on, a node
	// always computes at the grace deadline (never early on the n-th
	// report) so conflicting report versions have time to surface.
	Excision bool
	// AuthKeys is the per-processor HMAC-SHA256 keyring (length n). When
	// set, emitted reports carry a MAC over their frozen content and
	// computing nodes drop reports whose MAC does not verify under the
	// claimed origin's key (counted in dist.reports.authfail and treated
	// like loss). Nil preserves the unauthenticated protocol.
	AuthKeys [][]byte
}

// withDefaults fills derived defaults.
func (c Config) withDefaults() Config {
	if c.ReportGrace == 0 {
		c.ReportGrace = c.Window
	}
	return c
}

// retrySpacing returns the clock time between consecutive re-floods; all
// report retries land strictly inside the grace window.
func (c Config) retrySpacing() float64 {
	return c.ReportGrace / float64(c.Retries+1)
}

func (c Config) validate(n int) error {
	if int(c.Leader) < 0 || int(c.Leader) >= n {
		return fmt.Errorf("dist: leader p%d out of range [0,%d)", c.Leader, n)
	}
	if c.Probes < 1 {
		return fmt.Errorf("dist: probes = %d, want >= 1", c.Probes)
	}
	if c.Window <= 0 {
		return fmt.Errorf("dist: window = %v, want > 0", c.Window)
	}
	if c.Spacing < 0 || c.Warmup < 0 {
		return fmt.Errorf("dist: negative spacing/warmup")
	}
	if c.ReportGrace < 0 || math.IsNaN(c.ReportGrace) || math.IsInf(c.ReportGrace, 0) {
		return fmt.Errorf("dist: report grace = %v, want finite >= 0", c.ReportGrace)
	}
	if c.Retries < 0 {
		return fmt.Errorf("dist: retries = %d, want >= 0", c.Retries)
	}
	if c.AuthKeys != nil {
		if len(c.AuthKeys) != n {
			return fmt.Errorf("dist: %d auth keys for %d processors", len(c.AuthKeys), n)
		}
		for p, key := range c.AuthKeys {
			if len(key) == 0 {
				return fmt.Errorf("dist: empty auth key for p%d", p)
			}
		}
	}
	return nil
}

// Message payloads. In-process they travel as typed values; all three are
// plain data and JSON-serializable for a wire transport.

// Probe is a measurement message carrying the sender's clock.
type Probe struct {
	SendClock float64 `json:"sendClock"`
}

// DirReport is one link's incoming-direction summary (see round.DirReport).
type DirReport = round.DirReport

// Report is one processor's flooded link summary. Round stamps re-floods:
// each (Origin, Round) flood is forwarded at most once per processor, so
// retries traverse the network even where the first flood already did.
type Report struct {
	Origin model.ProcID `json:"origin"`
	Round  int          `json:"round,omitempty"`
	Links  []DirReport  `json:"links"`
	// MAC authenticates (Origin, Links) under the origin's key when the
	// run is configured with AuthKeys; empty otherwise.
	MAC []byte `json:"mac,omitempty"`
}

// ResultMsg is the leader's flooded outcome. Precision covers exactly the
// processors with Synced set (the leader's sync component).
type ResultMsg struct {
	Corrections []float64      `json:"corrections"`
	Precision   float64        `json:"precision"`
	Round       int            `json:"round,omitempty"`
	Degraded    bool           `json:"degraded,omitempty"`
	Missing     []model.ProcID `json:"missing,omitempty"`
	Excised     []model.ProcID `json:"excised,omitempty"`
	Synced      []bool         `json:"synced,omitempty"`
}

// Outcome is the protocol's terminal state, shared by all processor
// instances of one run (the engine is single-threaded, so no locking is
// needed).
type Outcome struct {
	// Corrections[p] is the correction processor p received; valid when
	// Applied[p].
	Corrections []float64
	// Applied[p] reports whether p received the result flood.
	Applied []bool
	// Precision, Missing, Degraded and Synced are the leader's round
	// outcome (see round.Result); Precision is NaN and Synced nil until the
	// leader computed.
	Precision float64
	Missing   []model.ProcID
	Degraded  bool
	Synced    []bool
	// PerNode holds, for the gossip variant only, each node's locally
	// computed correction vector (nil for nodes that never computed).
	PerNode [][]float64
	// LeaderTable is the statistics table the leader assembled (useful
	// for comparing against a centralized computation on the same data).
	LeaderTable *trace.Table
	// Err records a leader-side computation failure.
	Err error
	// ReportsSeen counts distinct report origins the leader had stored at
	// compute time (before excision).
	ReportsSeen int
	// Excised, ExcisedLinks and Equivocators are the leader round's
	// excision results (see round.Result). Requires Config.Excision.
	Excised      []model.ProcID
	ExcisedLinks [][2]model.ProcID
	Equivocators []model.ProcID
	// AuthFailures counts report origins with at least one version
	// rejected by MAC verification. Requires Config.AuthKeys.
	AuthFailures int
	// Delivered counts the messages delivered to live processors:
	// probes, reports, re-floods and results. Only the probes are in the
	// run's execution.
	Delivered int
}

// newFactory returns a protocol factory and the shared Outcome it fills
// in. A nil perNode selects the leader protocol; a non-nil one the gossip
// variant, in which every node runs the round and records its vector
// there, and no result is flooded.
func newFactory(n int, cfg Config, perNode [][]float64) (sim.ProtocolFactory, *Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(n); err != nil {
		return nil, nil, err
	}
	out := &Outcome{
		Corrections: make([]float64, n),
		Applied:     make([]bool, n),
		Precision:   math.NaN(),
	}
	session := "dist"
	if perNode != nil {
		session = "gossip"
	}
	factory := func(p model.ProcID) sim.Protocol {
		pr := &proc{
			cfg:       cfg,
			n:         n,
			out:       out,
			session:   session,
			perNode:   perNode,
			incoming:  make(map[model.ProcID]trace.DirStats),
			forwarded: newFloodSet(n),
			rejected:  make(map[model.ProcID]bool),
		}
		if perNode != nil || p == cfg.Leader {
			// Only the leader publishes quality telemetry: every gossip node
			// computes, but the leader's computation is the canonical one.
			pr.seen = make(map[model.ProcID]bool)
			pr.auth.keys = cfg.AuthKeys
			pr.round = round.New(round.Config{N: n, Links: cfg.Links, Excision: cfg.Excision,
				Solve: core.Options{Root: int(cfg.Leader), Centered: cfg.Centered,
					Parallelism: cfg.Parallelism, Quality: p == cfg.Leader, QualityLabel: session}})
		}
		return pr
	}
	return factory, out, nil
}

const (
	timerProbe = iota + 1
	timerReport
	timerDeadline
	timerReportRetry
	timerResultRetry
)

// floodKey identifies one flood wave for forwarding dedup. Report floods
// use the report's origin; the result flood uses origin -1.
type floodKey struct {
	origin model.ProcID
	round  int
}

func resultKey(round int) floodKey { return floodKey{origin: from(-1), round: round} }

// floodSet is the set of flood waves a processor has forwarded. Waves of
// origins -1..n-1 with rounds 0..63, every honest wave, are bits of one
// word per origin; any other wave (a forged origin or round) goes to a
// map, so membership is exact for every key.
type floodSet struct {
	rounds []uint64 // by origin+1: bit r set when round r was forwarded
	other  map[floodKey]bool
}

func newFloodSet(n int) floodSet { return floodSet{rounds: make([]uint64, n+1)} }

// add inserts the wave and reports whether it was new.
func (s *floodSet) add(k floodKey) bool {
	if o := int(k.origin) + 1; o >= 0 && o < len(s.rounds) && k.round >= 0 && k.round < 64 {
		bit := uint64(1) << k.round
		if s.rounds[o]&bit != 0 {
			return false
		}
		s.rounds[o] |= bit
		return true
	}
	if s.other[k] {
		return false
	}
	if s.other == nil {
		s.other = make(map[floodKey]bool)
	}
	s.other[k] = true
	return true
}

type proc struct {
	cfg     Config
	n       int
	out     *Outcome
	session string      // flight-record session and quality label
	perNode [][]float64 // gossip variant: every node's computed vector; nil for the leader variant

	incoming  map[model.ProcID]trace.DirStats // per-neighbor incoming probe stats
	reported  bool
	reportMsg Report                // own frozen report, for retries
	seen      map[model.ProcID]bool // computing node: absorbed report origins
	forwarded floodSet              // flood forwarding dedup per (origin, round)
	resultSet bool                  // correction applied
	rounds    int                   // own re-flood round counter (reports and, at the leader, results)

	// Computing-node state: the leader's, or every gossip node's. round
	// is nil on nodes that never compute.
	round    *round.Round
	rejected map[model.ProcID]bool // origins with a MAC-rejected version
	auth     macVerifier           // keyed computing node: report MAC checks
	computed bool
	result   ResultMsg
}

var _ sim.Protocol = (*proc)(nil)

// OnStart schedules the probe bursts, the report deadline and any
// re-flood rounds.
func (pr *proc) OnStart(env *sim.Env) {
	for k := 0; k < pr.cfg.Probes; k++ {
		if err := env.SetTimer(pr.cfg.Warmup+float64(k)*pr.cfg.Spacing, timerProbe); err != nil {
			return
		}
	}
	reportAt := pr.cfg.Warmup + pr.cfg.Window
	_ = env.SetTimer(reportAt, timerReport)
	for k := 1; k <= pr.cfg.Retries; k++ {
		_ = env.SetTimer(reportAt+float64(k)*pr.cfg.retrySpacing(), timerReportRetry)
	}
	if pr.round != nil {
		_ = env.SetTimer(reportAt+pr.cfg.ReportGrace, timerDeadline)
	}
}

// OnTimer sends a probe burst, emits or re-floods the report, or fires
// the computing node's quorum deadline.
func (pr *proc) OnTimer(env *sim.Env, tag int) {
	switch tag {
	case timerProbe:
		for _, q := range env.Neighbors() {
			if err := env.Send(model.ProcID(q), Probe{SendClock: env.Clock()}); err != nil {
				return
			}
			mProbesSent.Inc()
		}
	case timerReport:
		pr.emitReport(env)
	case timerReportRetry:
		pr.refloodReport(env)
	case timerDeadline:
		if !pr.computed {
			mDeadlineFires.Inc()
			dLog.Debug("report grace expired: computing from quorum",
				"proc", env.Self(), "reports", pr.round.Reports(), "n", pr.n, "clock", env.Clock())
			pr.compute(env)
		}
	case timerResultRetry:
		pr.refloodResult(env)
	}
}

// OnReceive dispatches by payload type.
func (pr *proc) OnReceive(env *sim.Env, from model.ProcID, payload any) {
	pr.out.Delivered++
	switch msg := payload.(type) {
	case Probe:
		pr.handleProbe(env, from, msg)
	case Report:
		pr.handleReport(env, from, payload)
	case ResultMsg:
		pr.handleResult(env, from, payload)
	}
}

// handleProbe folds one measurement sample into the incoming statistics.
func (pr *proc) handleProbe(env *sim.Env, from model.ProcID, msg Probe) {
	mProbesRecv.Inc()
	if pr.reported {
		mProbesLate.Inc()
		return // late probe: measurement window closed
	}
	st, ok := pr.incoming[from]
	if !ok {
		st = trace.NewDirStats()
	}
	st.Add(env.Clock() - msg.SendClock) // Lemma 6.1
	pr.incoming[from] = st
}

// emitReport freezes the measurement stats and floods them.
func (pr *proc) emitReport(env *sim.Env) {
	if pr.reported {
		return
	}
	pr.reported = true
	rep := Report{Origin: env.Self()}
	for q, st := range pr.incoming {
		rep.Links = append(rep.Links, DirReport{From: q, To: env.Self(), Stats: st})
	}
	// Deterministic order for reproducibility of message sequences.
	sort.Slice(rep.Links, func(i, j int) bool { return rep.Links[i].From < rep.Links[j].From })
	if pr.cfg.AuthKeys != nil {
		rep.MAC = reportMAC(pr.cfg.AuthKeys[env.Self()], rep.Origin, rep.Links)
	}
	pr.reportMsg = rep
	mReportsEmitted.Inc()
	// The probe span runs from the first burst to the report instant on
	// this processor's clock; it parents under the well-known round root
	// (obs.RootSpanID) the leader records at compute time, so the merged
	// trace is causally connected without an id handshake.
	pr.cfg.Trace.AddSimChild("probe", int(env.Self()), 0, pr.cfg.Warmup, env.Clock()-pr.cfg.Warmup, obs.RootSpanID)
	dLog.Debug("report emitted", "proc", env.Self(), "links", len(rep.Links), "clock", env.Clock())
	pr.acceptReport(env, rep)
	pr.forwarded.add(floodKey{origin: rep.Origin})
	pr.flood(env, from(-1), rep)
}

// refloodReport starts a fresh round-stamped flood of the own report, so
// waves lost to lossy links or healed partitions get another chance.
func (pr *proc) refloodReport(env *sim.Env) {
	if !pr.reported {
		return
	}
	pr.rounds++
	mReportRefloods.Inc()
	rep := pr.reportMsg
	rep.Round = pr.rounds
	pr.forwarded.add(floodKey{origin: rep.Origin, round: rep.Round})
	pr.flood(env, from(-1), rep)
}

// refloodResult starts a fresh round-stamped flood of the leader's result.
func (pr *proc) refloodResult(env *sim.Env) {
	if !pr.computed {
		return
	}
	pr.rounds++
	mResultRefloods.Inc()
	msg := pr.result
	msg.Round = pr.rounds
	pr.handleResult(env, from(-1), msg)
}

// handleReport absorbs every wave (later waves matter: conflicting
// versions of an already-stored origin are the equivocation signal) and
// forwards each (origin, round) wave once. The Report arrives boxed and
// is forwarded in the same box, so a wave is boxed once, where it starts.
func (pr *proc) handleReport(env *sim.Env, via model.ProcID, payload any) {
	rep := payload.(Report)
	pr.acceptReport(env, rep)
	if pr.forwarded.add(floodKey{origin: rep.Origin, round: rep.Round}) {
		pr.flood(env, via, payload)
	}
}

// acceptReport, on a computing node, marks the origin seen,
// authenticates the wave (when keyed) and hands it to the round, which
// rejects malformed reports, checks later versions for equivocation and
// stores the first valid one.
func (pr *proc) acceptReport(env *sim.Env, rep Report) {
	if pr.round == nil {
		return
	}
	first := !pr.seen[rep.Origin]
	pr.seen[rep.Origin] = true
	if pr.computed {
		if first {
			mReportsLate.Inc()
			dLog.Debug("report arrived after compute", "proc", env.Self(), "origin", rep.Origin, "clock", env.Clock())
		}
		return
	}
	if pr.cfg.AuthKeys != nil && !pr.auth.verify(rep) {
		if !pr.rejected[rep.Origin] {
			pr.rejected[rep.Origin] = true
			mReportsAuth.Inc()
			dLog.Debug("report MAC rejected", "proc", env.Self(), "origin", rep.Origin, "clock", env.Clock())
		}
		return // treated like loss: the origin stays unreported unless a valid version arrives
	}
	stored, err := pr.round.Accept(rep.Origin, rep.Links)
	if err != nil {
		dLog.Debug("malformed report rejected", "proc", env.Self(), "err", err, "clock", env.Clock())
		return
	}
	// With excision on, hold the computation to the grace deadline even
	// once all n reports are in: early completion would trust the first
	// version of every report before conflicting waves can surface.
	if stored && pr.round.Reports() == pr.n && !pr.cfg.Excision {
		pr.compute(env)
	}
}

// compute runs the coordinator round on whichever reports arrived and
// publishes the result: the leader floods it, a gossip node keeps its own
// vector (and the leader node's round fills the shared Outcome).
func (pr *proc) compute(env *sim.Env) {
	if pr.computed {
		return
	}
	pr.computed = true
	self := int(env.Self())
	leader := env.Self() == pr.cfg.Leader
	if leader {
		// The leader anchors the round trace: the "round" root span carries
		// the well-known RootSpanID every other span (including the probe
		// spans the processors recorded independently) parents under.
		pr.cfg.Trace.Add(obs.Span{Phase: "round", Proc: -1, Start: 0, Seconds: env.Clock(),
			Sim: true, ID: obs.RootSpanID})
	}
	// Collect phase: report instant to compute instant, on this clock.
	reportAt := pr.cfg.Warmup + pr.cfg.Window
	pr.cfg.Trace.AddSimChild("collect", self, 0, reportAt, env.Clock()-reportAt, obs.RootSpanID)
	computeSpan, endCompute := pr.cfg.Trace.StartChild("compute", self, 0, obs.RootSpanID)
	res := pr.round.Solve(pr.phaseObserver(self, computeSpan))
	endCompute()
	if leader {
		// Flight-record the round regardless of tracing: phase timings,
		// the defense tallies and the quality figures land in obs.Rounds
		// for post-hoc inspection at /debug/rounds.
		rec := res.Record
		rec.Session, rec.AuthFailures = pr.session, len(pr.rejected)
		obs.Rounds.Record(rec)
		pr.out.ReportsSeen = res.Reports
		pr.out.AuthFailures = len(pr.rejected)
	}
	if res.Err != nil {
		pr.fail(res.Err)
		return
	}
	dLog.Info("computed", "proc", self, "session", pr.session, "reports", res.Reports,
		"missing", len(res.Missing), "excised", len(res.Excised), "degraded", res.Degraded, "precision", res.Precision)
	if pr.perNode != nil {
		pr.perNode[self] = res.Corrections
	}
	if !leader {
		return
	}
	pr.out.LeaderTable = res.Table
	pr.out.Precision = res.Precision
	pr.out.Missing = res.Missing
	pr.out.Excised = res.Excised
	pr.out.ExcisedLinks = res.ExcisedLinks
	pr.out.Equivocators = res.Equivocators
	pr.out.Degraded = res.Degraded
	pr.out.Synced = res.Synced
	if pr.perNode != nil {
		return // gossip floods no result
	}

	msg := ResultMsg{
		Corrections: res.Corrections,
		Precision:   res.Precision,
		Degraded:    res.Degraded,
		Missing:     res.Missing,
		Excised:     res.Excised,
		Synced:      res.Synced,
	}
	pr.result = msg
	pr.handleResult(env, from(-1), msg)
	for k := 1; k <= pr.cfg.Retries; k++ {
		_ = env.SetTimer(env.Clock()+float64(k)*pr.cfg.retrySpacing(), timerResultRetry)
	}
}

// handleResult applies the first result seen and forwards each round's
// wave once, in the box it arrived in (see handleReport).
func (pr *proc) handleResult(env *sim.Env, via model.ProcID, payload any) {
	msg := payload.(ResultMsg)
	if !pr.resultSet {
		pr.resultSet = true
		self := int(env.Self())
		if self < len(msg.Corrections) {
			pr.out.Corrections[self] = msg.Corrections[self]
			pr.out.Applied[self] = true
		}
	}
	if pr.forwarded.add(resultKey(msg.Round)) {
		pr.flood(env, via, payload)
	}
}

// flood forwards a payload to every neighbor except the one it arrived
// from (-1 for locally originated messages). Floods are control traffic:
// their timing is never measured, so they stay out of the execution.
func (pr *proc) flood(env *sim.Env, via model.ProcID, payload any) {
	for _, q := range env.Neighbors() {
		if model.ProcID(q) == via {
			continue
		}
		if err := env.SendControl(model.ProcID(q), payload); err != nil {
			return
		}
	}
}

func (pr *proc) fail(err error) {
	if pr.out.Err == nil {
		pr.out.Err = err
	}
}

// phaseObserver feeds the core pipeline's phase durations into the
// per-run trace (as children of the enclosing compute span) and the
// process-wide phase histograms; the round adds them to its flight
// record. Histogram feeding stays on even without a trace — it is four
// observations per compute, nowhere near a hot path.
func (pr *proc) phaseObserver(proc int, parent obs.SpanID) obs.PhaseObserver {
	traced := pr.cfg.Trace.ObserverChild(proc, 0, parent)
	return obs.PhaseFunc(func(phase string, seconds float64) {
		obs.Default.Histogram("dist.phase."+phase+".seconds", nil).Observe(seconds)
		if traced != nil {
			traced.ObservePhase(phase, seconds)
		}
	})
}

// from converts an int to a ProcID; from(-1) denotes "locally originated".
func from(v int) model.ProcID { return model.ProcID(v) }

// Run wires the protocol to a network and executes it to quiescence. On a
// fault-free run (runCfg.Faults nil) every processor must end up applied;
// with faults injected the caller inspects the Outcome instead — crashed
// or partitioned-off processors legitimately miss the result flood. The
// returned execution holds the measurement traffic only: the probes, with
// message IDs numbered densely in delivery order. Outcome.Delivered
// counts the floods as well.
func Run(net *sim.Network, cfg Config, runCfg sim.RunConfig) (*Outcome, *model.Execution, error) {
	factory, out, err := newFactory(net.N(), cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	runCfg.Faults = withReportMutator(runCfg.Faults, cfg.AuthKeys)
	exec, err := sim.Run(net, factory, runCfg)
	if err != nil {
		return nil, nil, err
	}
	if out.Err != nil {
		return out, exec, fmt.Errorf("dist: leader computation: %w", out.Err)
	}
	if runCfg.Faults == nil {
		for p, ok := range out.Applied {
			if !ok {
				return out, exec, fmt.Errorf("dist: p%d never received the result flood", p)
			}
		}
	}
	return out, exec, nil
}
