// Package distributed is the public face of the Section 7 leader
// protocol: an end-to-end distributed realization of the optimal
// synchronizer over a simulated network, where processors measure,
// flood per-link statistics to a leader, and receive their corrections
// back — no central observer ever sees the raw views.
//
// Per the paper's own caveat, the corrections are optimal with respect to
// the measurement (probe) traffic; the flood messages' timing information
// is not exploited.
package distributed

import (
	"fmt"
	"math"

	"clocksync/internal/dist"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"

	"clocksync"
)

// Config tunes the leader protocol.
type Config struct {
	// Leader collects reports and computes corrections (default 0).
	Leader clocksync.ProcID
	// Probes is the number of measurement messages per link direction
	// (default 4).
	Probes int
	// Spacing separates consecutive probes in clock time (default 10 ms).
	Spacing float64
	// Window is the measurement duration before reports are emitted
	// (default: Probes*Spacing + 2 s).
	Window float64
	// ReportGrace is how long (clock time) the leader waits for missing
	// reports past the report time before computing from whichever subset
	// arrived (default: Window).
	ReportGrace float64
	// Retries is the number of report/result re-floods, spread across the
	// grace period, for lossy networks (default 0).
	Retries int
	// Centered selects centered corrections at the leader.
	Centered bool
	// Parallelism bounds the worker lanes of the correction computation
	// (0 = GOMAXPROCS, 1 = serial); results are identical for every value.
	Parallelism int
	// Gossip selects the leaderless variant: reports are flooded to
	// everyone and every node computes the (identical) corrections
	// locally, skipping the result flood.
	Gossip bool
	// Trace, when non-nil, collects per-round phase spans (probe,
	// collect, compute, and the compute sub-phases) for the run; export
	// it with its WriteJSON method.
	Trace *obs.Trace
	// Excision enables the coordinator's Byzantine defenses:
	// equivocating reporters and reports violating the Lemma 6.1
	// round-trip envelope are excised, and the quorum path recomputes
	// without them. See the scenario `faults.byzantine` section for
	// injecting liars.
	Excision bool
	// Authenticate signs report floods with per-processor HMAC-SHA256
	// keys (derived deterministically from the scenario seed) and drops
	// reports whose MAC does not verify, so a forged report cannot
	// impersonate an honest processor. Lies a processor signs about its
	// own measurements still require Excision to catch.
	Authenticate bool
}

func (c *Config) fill() {
	if c.Probes == 0 {
		c.Probes = 4
	}
	if c.Spacing == 0 {
		c.Spacing = 0.01
	}
	if c.Window == 0 {
		c.Window = float64(c.Probes)*c.Spacing + 2
	}
}

// validate rejects nonsensical parameters up front, before the zero-value
// defaulting could mask them.
func (c *Config) validate() error {
	if c.Probes < 0 {
		return fmt.Errorf("distributed: Probes = %d, want >= 0", c.Probes)
	}
	if c.Spacing < 0 || math.IsNaN(c.Spacing) || math.IsInf(c.Spacing, 0) {
		return fmt.Errorf("distributed: Spacing = %v, want a finite value >= 0", c.Spacing)
	}
	if c.Window < 0 || math.IsNaN(c.Window) || math.IsInf(c.Window, 0) {
		return fmt.Errorf("distributed: Window = %v, want a finite value >= 0", c.Window)
	}
	if c.ReportGrace < 0 || math.IsNaN(c.ReportGrace) || math.IsInf(c.ReportGrace, 0) {
		return fmt.Errorf("distributed: ReportGrace = %v, want a finite value >= 0", c.ReportGrace)
	}
	if c.Retries < 0 {
		return fmt.Errorf("distributed: Retries = %d, want >= 0", c.Retries)
	}
	return nil
}

// Outcome reports one distributed run.
type Outcome struct {
	// Corrections[p] is the correction processor p received.
	Corrections []float64
	// Precision is the optimal guaranteed precision of the leader's
	// synchronized component.
	Precision float64
	// Messages is the total number of delivered messages (probes plus
	// report and result floods).
	Messages int
	// Starts is the simulator's ground-truth start vector.
	Starts []float64
	// Realized is the ground-truth discrepancy of the corrected clocks —
	// over all processors on a clean run, over the applied part of the
	// synchronized component on a degraded one.
	Realized float64
	// Degraded is set when the leader computed without the full report
	// set (crashes, partitions or flood loss).
	Degraded bool
	// Missing lists processors whose reports never reached the leader.
	Missing []clocksync.ProcID
	// Applied[p] reports whether p received (and applied) its correction.
	Applied []bool
	// Synced flags membership in the leader's synchronized component;
	// Precision covers exactly these processors. Nil on clean runs of the
	// leader variant when every processor synchronized.
	Synced []bool
	// Excised lists reporters removed by the consistency checks
	// (Config.Excision); Equivocators is the subset caught reporting
	// conflicting versions to different peers.
	Excised      []clocksync.ProcID
	Equivocators []clocksync.ProcID
	// ExcisedLinks lists links whose statistics were dropped because the
	// round-trip check failed without an attributable liar.
	ExcisedLinks [][2]clocksync.ProcID
	// AuthFailures counts report origins rejected by MAC verification
	// (Config.Authenticate).
	AuthFailures int
}

// RunScenarioJSON simulates the scenario (see the clocksync package and
// the examples for the JSON schema; the scenario's protocol section is
// ignored — the leader protocol supplies the traffic) and runs the
// distributed synchronization on it.
func RunScenarioJSON(data []byte, cfg Config) (*Outcome, error) {
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	built, err := sc.Build()
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	dcfg := dist.Config{
		Leader:      cfg.Leader,
		Links:       built.Links,
		Probes:      cfg.Probes,
		Spacing:     cfg.Spacing,
		Warmup:      sim.SafeWarmup(built.Starts) + 0.5,
		Window:      cfg.Window,
		ReportGrace: cfg.ReportGrace,
		Retries:     cfg.Retries,
		Centered:    cfg.Centered,
		Parallelism: cfg.Parallelism,
		Trace:       cfg.Trace,
		Excision:    cfg.Excision,
	}
	if cfg.Authenticate {
		dcfg.AuthKeys = dist.DeriveKeys(sc.Processors, sc.Seed)
	}
	runFn := dist.Run
	if cfg.Gossip {
		runFn = dist.GossipRun
	}
	runCfg := built.RunCfg
	runCfg.Trace = cfg.Trace // the engine's sim.run span joins the round trace
	out, exec, err := runFn(built.Net, dcfg, runCfg)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	delivered := 0
	if err := exec.EachMessage(func(model.Message) error { delivered++; return nil }); err != nil {
		return nil, err
	}
	res := &Outcome{
		Corrections:  out.Corrections,
		Precision:    out.Precision,
		Messages:     delivered,
		Starts:       built.Starts,
		Degraded:     out.Degraded,
		Missing:      out.Missing,
		Applied:      out.Applied,
		Synced:       out.Synced,
		Excised:      out.Excised,
		Equivocators: out.Equivocators,
		ExcisedLinks: out.ExcisedLinks,
		AuthFailures: out.AuthFailures,
	}
	if out.Degraded {
		// Ground truth restricted to the processors the precision covers
		// and that actually received their correction.
		res.Realized = 0
		var comp []int
		for p := range out.Applied {
			if out.Applied[p] && (out.Synced == nil || out.Synced[p]) {
				comp = append(comp, p)
			}
		}
		for i, p := range comp {
			for _, q := range comp[:i] {
				d := math.Abs((built.Starts[p] - out.Corrections[p]) - (built.Starts[q] - out.Corrections[q]))
				if d > res.Realized {
					res.Realized = d
				}
			}
		}
		return res, nil
	}
	realized, err := clocksync.Discrepancy(built.Starts, out.Corrections)
	if err != nil {
		return nil, err
	}
	res.Realized = realized
	return res, nil
}
