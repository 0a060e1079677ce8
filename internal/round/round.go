// Package round is the coordinator round of the synchronization protocol,
// free of any transport. The Section 7 protocol only delivers the
// centralized SHIFTS computation (Theorem 4.6) to the processors, so there
// is exactly one computation per round: collect per-origin link reports,
// run the consistency checks that excise lying reporters, assemble the
// statistics table, solve on the reporting subgraph and pick the leader's
// synchronized component. The simulated leader and gossip variants
// (internal/dist) and the TCP coordinator (internal/netsync) are adapters
// around it: each delivers the reports and disseminates the result its
// own way, and the computation in between is this one. The keyring and the
// MAC that authenticate reports on every transport live here too
// (auth.go).
//
// The round reads no ambient time: wall-clock phase timings reach it only
// through the core solver's observer, so replays stay bit-identical.
package round

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// Round observability. The counters keep their historical dist.* names;
// they count coordinator rounds on every transport.
var (
	rLog = obs.For("round")

	mReportsAbsorb  = obs.Default.Counter("dist.reports.absorbed")
	mReportsInvalid = obs.Default.Counter("dist.reports.invalid")
	mReportsMissing = obs.Default.Counter("dist.reports.missing")
	mReportsFlagged = obs.Default.Counter("dist.reports.flagged")
	mReportsExcised = obs.Default.Counter("dist.reports.excised")
	mLinksExcised   = obs.Default.Counter("dist.links.excised")
	mEquivocations  = obs.Default.Counter("dist.reports.equivocations")
	mComputes       = obs.Default.Counter("dist.computes")
	mComputesDegr   = obs.Default.Counter("dist.computes.degraded")

	// The solver's phase durations per compute, by phase.
	hPhases = map[string]*obs.Histogram{
		"mls":         obs.Default.Histogram("dist.phase.mls.seconds", nil),
		"estimate":    obs.Default.Histogram("dist.phase.estimate.seconds", nil),
		"karp_amax":   obs.Default.Histogram("dist.phase.karp_amax.seconds", nil),
		"corrections": obs.Default.Histogram("dist.phase.corrections.seconds", nil),
	}
)

// DirReport is the incoming-direction summary of one link, as observed by
// the reporting processor: statistics of estimated delays From -> To (To
// is always the reporter).
type DirReport struct {
	From  model.ProcID   `json:"from"`
	To    model.ProcID   `json:"to"`
	Stats trace.DirStats `json:"stats"`
}

// Config parameterizes one round.
type Config struct {
	// N is the number of processors.
	N int
	// Links carries the per-link delay assumptions.
	Links []core.Link
	// Excision enables the consistency checks: conflicting report versions
	// flag their origin as an equivocator, equivocators and reports
	// violating the Lemma 6.1 round-trip envelope are excised before the
	// table is assembled, and an infeasible solve retries without the most
	// suspect reporter. Without it an infeasible solve fails the round.
	Excision bool
	// Solve configures the SHIFTS computation. Solve.Root is the leader:
	// the round reports its component's precision, and the infeasibility
	// fallback never excises it. Solve.Observer is replaced by the round's
	// own phase recording, which chains to the observer passed to Solve.
	Solve core.Options
}

// Round collects one round's reports and computes its outcome. It is not
// safe for concurrent use; transports serialize access.
type Round struct {
	cfg          Config
	reports      [][]DirReport // first valid version per origin
	stored       []bool
	equivocators []bool
	excised      []bool
	cutLinks     map[trace.LinkKey]bool // links whose statistics excision dropped
	count        int
}

// New returns an empty round.
func New(cfg Config) *Round {
	return &Round{
		cfg:          cfg,
		reports:      make([][]DirReport, cfg.N),
		stored:       make([]bool, cfg.N),
		equivocators: make([]bool, cfg.N),
		excised:      make([]bool, cfg.N),
	}
}

// Validate checks a report's shape: the origin is a processor, and every
// link is a non-empty, finite, ordered summary of another processor's
// traffic into the origin. A report failing any check can never be
// honest, so it is rejected whole.
func Validate(n int, origin model.ProcID, links []DirReport) error {
	if int(origin) < 0 || int(origin) >= n {
		return fmt.Errorf("round: report origin p%d out of range [0,%d)", origin, n)
	}
	for _, dr := range links {
		st := dr.Stats
		switch {
		case dr.To != origin:
			return fmt.Errorf("round: report from p%d claims stats for p%d", origin, dr.To)
		case int(dr.From) < 0 || int(dr.From) >= n || dr.From == origin:
			return fmt.Errorf("round: report from p%d names sender p%d", origin, dr.From)
		case st.Count <= 0:
			return fmt.Errorf("round: report from p%d: link from p%d with count %d", origin, dr.From, st.Count)
		case math.IsNaN(st.Min) || math.IsNaN(st.Max) || math.IsInf(st.Min, 0) || math.IsInf(st.Max, 0) || st.Max < st.Min:
			return fmt.Errorf("round: report from p%d: link from p%d with stats [%v,%v]", origin, dr.From, st.Min, st.Max)
		}
	}
	return nil
}

// Has reports whether a report from origin is stored.
func (r *Round) Has(origin model.ProcID) bool {
	return int(origin) >= 0 && int(origin) < r.cfg.N && r.stored[origin]
}

// Reports returns the number of origins with a stored report.
func (r *Round) Reports() int { return r.count }

// Accept validates a report and stores it when it is the origin's first
// valid version, reporting whether it did. Under Excision a later version
// that differs from the stored one flags the origin as an equivocator:
// honest re-sends are byte-identical copies of one frozen report. The
// error is non-nil exactly when the report is malformed; nothing is stored
// then, so the origin's genuine report is still accepted afterwards.
func (r *Round) Accept(origin model.ProcID, links []DirReport) (bool, error) {
	if err := Validate(r.cfg.N, origin, links); err != nil {
		mReportsInvalid.Inc()
		return false, err
	}
	if r.stored[origin] {
		if r.cfg.Excision && !r.equivocators[origin] && !sameLinks(r.reports[origin], links) {
			r.equivocators[origin] = true
			mEquivocations.Inc()
			rLog.Debug("conflicting report versions: equivocation flagged", "origin", origin)
		}
		return false, nil
	}
	mReportsAbsorb.Inc()
	r.Set(origin, links)
	return true, nil
}

// Set stores a trusted report without validation, replacing any stored
// version — a coordinator's own live statistics.
func (r *Round) Set(origin model.ProcID, links []DirReport) {
	if !r.stored[origin] {
		r.stored[origin] = true
		r.count++
	}
	r.reports[origin] = links
}

// sameLinks reports whether two report versions carry identical link
// statistics. Exact float comparison is deliberate: honest re-sends are
// byte-identical copies of the frozen report, so any difference at all
// is a lie, never rounding.
func sameLinks(a, b []DirReport) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Stats.Count != b[i].Stats.Count {
			return false
		}
		if a[i].Stats.Min != b[i].Stats.Min || a[i].Stats.Max != b[i].Stats.Max { //clocklint:allow floateq
			return false
		}
	}
	return true
}

// Result is one round's outcome.
type Result struct {
	// Corrections is the correction vector; nil when Err is set.
	Corrections []float64
	// Precision is the optimal precision of the leader's component.
	Precision float64
	// Synced flags the leader's component: the processors Precision
	// covers.
	Synced []bool
	// Missing lists processors with no stored report. Excised lists, by
	// id, the reporters the consistency checks threw out (equivocation or
	// attributable violations); their links keep only the honest
	// endpoints' statistics, like Missing reporters. Equivocators is the
	// subset of Excised caught with conflicting versions.
	Missing, Excised, Equivocators []model.ProcID
	// ExcisedLinks lists links whose statistics were dropped because the
	// round-trip check failed without an attributable liar.
	ExcisedLinks [][2]model.ProcID
	// Degraded is set when reports were missing or excised, link
	// statistics were dropped, or the leader's component is not everyone.
	Degraded bool
	// Reports counts the origins stored before excision.
	Reports int
	// Table is the statistics table the solve ran on.
	Table *trace.Table
	// Record is the round's flight record. The caller adds what only the
	// transport knows (Session, Round, AuthFailures, WallSeconds) and files
	// it with obs.Rounds.Record.
	Record obs.RoundRecord
	// Err is the failure that ended the round, if any.
	Err error
}

// Solve runs the round on the stored reports: excise (under Excision),
// assemble the table in processor order, cut the links down to the
// reporting subgraph and solve, retrying without the most suspect reporter
// while the system is infeasible. Missing and excised reporters degrade
// the result: their links keep only the surviving endpoint's statistics
// (Lemma 6.1's worst case under the assumption bounds), and the precision
// covers only the leader's component. The solver phases feed the round's
// flight record and the dist.phase.<phase>.seconds histograms, and po,
// when non-nil, observes them too. Solve consumes the round; call it once.
func (r *Round) Solve(po obs.PhaseObserver) *Result {
	res := &Result{Reports: r.count, Precision: math.NaN()}
	rec := &res.Record
	opts := r.cfg.Solve
	opts.Observer = obs.PhaseFunc(func(phase string, seconds float64) {
		rec.AddPhase(phase, seconds)
		if h := hPhases[phase]; h != nil {
			h.Observe(seconds)
		}
		if po != nil {
			po.ObservePhase(phase, seconds)
		}
	})
	if r.cfg.Excision {
		res.Excised, res.Equivocators, res.ExcisedLinks = r.excise()
	}
	mComputes.Inc()

	// The per-link checks cannot catch a lie that keeps every individual
	// link inside its envelope but sums to a negative cycle around a longer
	// loop, so under Excision an infeasible solve falls back to excising
	// the most-suspect remaining reporter and retrying.
	var sol *core.Result
	for {
		res.Missing = r.missing()
		tab, err := r.table()
		if err == nil {
			links := r.cfg.Links
			if len(res.Missing) > 0 || len(res.Excised) > 0 {
				links = r.reportingLinks()
			}
			res.Table = tab
			sol, err = core.SynchronizeSystem(r.cfg.N, links, tab, core.DefaultMLSOptions(), opts)
		}
		if err == nil {
			break
		}
		victim, ok := model.ProcID(0), false
		if r.cfg.Excision && errors.Is(err, core.ErrInfeasible) {
			victim, ok = r.feasibilityVictim()
		}
		if !ok {
			res.Err = err
			rec.Outcome, rec.Err, rec.Precision = "failed", err.Error(), -1
			return res
		}
		rLog.Debug("infeasible despite per-link checks; excising worst reporter", "victim", victim)
		r.drop(victim)
		res.Excised = append(res.Excised, victim)
		mReportsFlagged.Inc()
		mReportsExcised.Inc()
	}
	sort.Slice(res.Excised, func(i, j int) bool { return res.Excised[i] < res.Excised[j] })
	if len(res.Missing) > 0 {
		mReportsMissing.Add(int64(len(res.Missing)))
	}
	comp, prec := leaderComponent(sol, r.cfg.Solve.Root)
	res.Synced = make([]bool, r.cfg.N)
	for _, p := range comp {
		res.Synced[p] = true
	}
	res.Degraded = len(res.Missing) > 0 || len(res.Excised) > 0 || len(res.ExcisedLinks) > 0 || len(comp) < r.cfg.N
	res.Corrections, res.Precision = sol.Corrections, prec

	rec.Outcome = "ok"
	if res.Degraded {
		mComputesDegr.Inc()
		rec.Outcome = "degraded"
	}
	rec.Synced, rec.Missing, rec.Excised = len(comp), len(res.Missing), len(res.Excised)
	rec.Precision = prec
	if math.IsNaN(prec) || math.IsInf(prec, 0) {
		rec.Precision = -1
	}
	qr := core.AssessQuality(sol)
	rec.Achieved, rec.Optimal, rec.Ratio = qr.Achieved, qr.Optimal, qr.Ratio
	if math.IsInf(rec.Ratio, 0) || math.IsNaN(rec.Ratio) {
		rec.Ratio = -1 // keep the record JSON-encodable
	}
	return res
}

// missing lists the processors with neither a stored nor an excised
// report.
func (r *Round) missing() []model.ProcID {
	var missing []model.ProcID
	for p := 0; p < r.cfg.N; p++ {
		if !r.stored[p] && !r.excised[p] {
			missing = append(missing, model.ProcID(p))
		}
	}
	return missing
}

// drop excises one reporter's stored report.
func (r *Round) drop(p model.ProcID) {
	r.stored[p], r.excised[p], r.reports[p] = false, true, nil
}

// table assembles the statistics table from the stored reports in
// processor order, skipping the cut links. DirStats merging is
// commutative, so the table does not depend on arrival order.
func (r *Round) table() (*trace.Table, error) {
	tab := trace.NewTable(r.cfg.N, false)
	for _, links := range r.reports {
		for _, dr := range links {
			if r.cutLinks[trace.Canon(dr.From, dr.To)] {
				continue
			}
			if err := tab.MergeStats(dr.From, dr.To, dr.Stats); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

// reportingLinks keeps the links with statistics from at least one
// endpoint: the reporting subgraph. Links both of whose endpoints are
// silent contribute no constraint (their observed extremes are the empty
// conventions of Section 6.1) and are dropped outright.
func (r *Round) reportingLinks() []core.Link {
	kept := make([]core.Link, 0, len(r.cfg.Links))
	for _, l := range r.cfg.Links {
		if r.Has(l.P) || r.Has(l.Q) {
			kept = append(kept, l)
		}
	}
	return kept
}

// leaderComponent returns the sync component containing the leader and
// its precision.
func leaderComponent(res *core.Result, leader int) ([]int, float64) {
	for ci, comp := range res.Components {
		for _, p := range comp {
			if p == leader {
				return comp, res.ComponentPrecision[ci]
			}
		}
	}
	return []int{leader}, 0
}
