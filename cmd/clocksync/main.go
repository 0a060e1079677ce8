// Command clocksync runs a simulated clock-synchronization scenario
// described by a JSON file, prints the computed corrections and their
// optimal precision, and optionally verifies instance optimality against
// the simulator's ground truth.
//
// Usage:
//
//	clocksync -scenario cfg.json [-verify] [-centered] [-root N] [-trials N]
//	clocksync -init > cfg.json     # emit a starter scenario
//
// Observability: -log enables structured logging, -metrics-addr serves
// live metrics (/metrics in Prometheus text or JSON form, /healthz,
// /debug/rounds, /debug/pprof) during the run, -trace and -trace-chrome
// write the sync-round spans as JSON or as a Perfetto-loadable Chrome
// trace, and -rounds dumps the flight recorder's retained rounds. A
// distributed run that completes degraded (missing reports) exits with
// status 2 and dumps the flight recorder to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"clocksync"
	"clocksync/distributed"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
)

// errDegraded marks a run that completed but without the full report set;
// main maps it to exit status 2 so scripts can tell "synced but degraded"
// from hard failures.
var errDegraded = errors.New("distributed run degraded")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, errDegraded) {
			fmt.Fprintln(os.Stderr, "clocksync:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "clocksync:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clocksync", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "path to a scenario JSON file")
		doInit       = fs.Bool("init", false, "print a starter scenario to stdout and exit")
		doVerify     = fs.Bool("verify", false, "verify instance optimality against ground truth")
		centered     = fs.Bool("centered", false, "use centered (symmetric) corrections")
		root         = fs.Int("root", 0, "processor whose correction is fixed to zero")
		trials       = fs.Int("trials", 200, "alternative correction vectors for -verify")
		distMode     = fs.String("dist", "", "run the distributed protocol instead: 'leader' or 'gossip'")
		reportGrace  = fs.Float64("report-grace", 0, "distributed: leader wait for missing reports before a degraded compute (0 = window)")
		retries      = fs.Int("retries", 0, "distributed: report/result re-floods for lossy networks")
		excision     = fs.Bool("excision", false, "distributed: excise reports that fail the coordinator's consistency checks (Byzantine defense)")
		auth         = fs.Bool("auth", false, "distributed: HMAC-authenticate report floods (rejects forged origins)")
		showPairs    = fs.Bool("pairs", false, "print the per-pair precision bound matrix")
		logLevel     = fs.String("log", "off", "structured log level: off, debug, info, warn or error")
		logJSON      = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
		linger       = fs.Duration("metrics-linger", 0, "keep the metrics server up this long after the run (for scraping)")
		tracePath    = fs.String("trace", "", "distributed: write sync-round phase spans as JSON to this file")
		traceChrome  = fs.String("trace-chrome", "", "distributed: write the round trace in Chrome trace_event format (opens in Perfetto) to this file")
		roundsPath   = fs.String("rounds", "", "write the flight recorder's retained rounds as JSON to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.EnableLogging(os.Stderr, *logLevel, *logJSON); err != nil {
		return err
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "clocksync: metrics on http://%s/metrics\n", srv.Addr())
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}
	if *doInit {
		return printStarter()
	}
	if *scenarioPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -scenario (or use -init)")
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return err
	}
	if *distMode != "" {
		err := runDistributed(data, *distMode, *tracePath, *traceChrome, distributed.Config{
			Leader:       clocksync.ProcID(*root),
			Centered:     *centered,
			ReportGrace:  *reportGrace,
			Retries:      *retries,
			Excision:     *excision,
			Authenticate: *auth,
		})
		if rerr := dumpRounds(*roundsPath, err); rerr != nil && err == nil {
			err = rerr
		}
		return err
	}
	rep, err := clocksync.RunScenarioJSON(data, clocksync.SimOptions{
		Verify:   *doVerify,
		Trials:   *trials,
		Centered: *centered,
		Root:     clocksync.ProcID(*root),
	})
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if *showPairs {
		printPairBounds(rep.Result)
	}
	if rep.Certificate != nil {
		if err := rep.Certificate.Ok(1e-9); err != nil {
			return fmt.Errorf("optimality verification FAILED: %w", err)
		}
		fmt.Println("optimality: verified (Lemma 4.5, Theorem 4.6, random-alternative search)")
	}
	return nil
}

// runDistributed executes the Section 7 protocol from the CLI.
func runDistributed(data []byte, mode, tracePath, chromePath string, cfg distributed.Config) error {
	switch mode {
	case "leader":
	case "gossip":
		cfg.Gossip = true
	default:
		return fmt.Errorf("unknown -dist mode %q (want leader or gossip)", mode)
	}
	if tracePath != "" || chromePath != "" {
		cfg.Trace = obs.NewTrace(mode)
	}
	out, err := distributed.RunScenarioJSON(data, cfg)
	if err != nil {
		obs.SetHealth(obs.Health{Err: err.Error(), Precision: -1})
		return err
	}
	publishHealth(out)
	if tracePath != "" {
		if err := writeExport(tracePath, cfg.Trace.WriteJSON); err != nil {
			return err
		}
	}
	if chromePath != "" {
		if err := writeExport(chromePath, cfg.Trace.WriteChrome); err != nil {
			return err
		}
	}
	fmt.Printf("distributed (%s) synchronization\n", mode)
	fmt.Printf("messages on the wire: %d\n", out.Messages)
	fmt.Printf("optimal precision:    %.6g\n", out.Precision)
	fmt.Printf("realized discrepancy: %.6g\n", out.Realized)
	if out.Degraded && len(out.Missing) > 0 {
		fmt.Printf("DEGRADED: missing reports from %v\n", out.Missing)
	}
	if len(out.Excised) > 0 {
		fmt.Printf("EXCISED: reports from %v failed the consistency checks (equivocators: %v)\n",
			out.Excised, out.Equivocators)
	}
	if len(out.ExcisedLinks) > 0 {
		fmt.Printf("EXCISED LINKS: statistics dropped for %v (blame unattributable)\n", out.ExcisedLinks)
	}
	if out.AuthFailures > 0 {
		fmt.Printf("AUTH: %d report origin(s) rejected by MAC verification\n", out.AuthFailures)
	}
	fmt.Println("corrections:")
	for p, c := range out.Corrections {
		status := ""
		if out.Applied != nil && !out.Applied[p] {
			status = "  (not applied)"
		} else if out.Synced != nil && !out.Synced[p] {
			status = "  (outside the synchronized component)"
		}
		fmt.Printf("  p%-3d %+.6g%s\n", p, c, status)
	}
	if out.Degraded {
		if len(out.Excised) > 0 || len(out.ExcisedLinks) > 0 {
			return fmt.Errorf("%w: excised %v, links %v, missing reports from %v",
				errDegraded, out.Excised, out.ExcisedLinks, out.Missing)
		}
		return fmt.Errorf("%w: missing reports from %v", errDegraded, out.Missing)
	}
	return nil
}

// publishHealth mirrors the run outcome into the /healthz endpoint.
func publishHealth(out *distributed.Outcome) {
	h := obs.Health{Degraded: out.Degraded, Missing: len(out.Missing), Precision: out.Precision}
	for _, ok := range out.Applied {
		if ok {
			h.Applied++
		}
	}
	for _, ok := range out.Synced {
		if ok {
			h.Synced++
		}
	}
	if out.Synced == nil && !out.Degraded {
		h.Synced = len(out.Corrections)
	}
	obs.SetHealth(h)
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

// dumpRounds writes the flight recorder's retained rounds: to path when
// one was requested, and to stderr on a degraded exit so the evidence of
// what went wrong survives even without the flag.
func dumpRounds(path string, runErr error) error {
	if path != "" {
		return writeExport(path, obs.Rounds.WriteJSON)
	}
	if errors.Is(runErr, errDegraded) {
		fmt.Fprintln(os.Stderr, "clocksync: flight recorder (last rounds):")
		return obs.Rounds.WriteJSON(os.Stderr)
	}
	return nil
}

// printReport renders a centralized run: the precision under the label
// of what it is (the optimum A_max, or the hierarchical solver's bound λ̂
// with the certified lower bound λ_B), then the corrections.
func printReport(w io.Writer, rep *clocksync.Report) {
	res := rep.Result
	fmt.Fprintf(w, "messages delivered: %d\n", rep.Messages)
	if math.IsInf(res.Precision, 1) {
		fmt.Fprintln(w, "precision: unbounded (constraints do not connect all processors)")
		for i, comp := range res.Components {
			fmt.Fprintf(w, "  component %d: processors %v, ", i, comp)
			if lb, ok := belowPrecision(res, i); ok {
				fmt.Fprintf(w, "precision bound (λ̂) %.6g, certified lower bound (λ_B) %.6g\n", res.ComponentPrecision[i], lb)
			} else {
				fmt.Fprintf(w, "precision %.6g\n", res.ComponentPrecision[i])
			}
		}
	} else if lb, ok := belowPrecision(res, 0); ok {
		// The hierarchical solver answered: the corrections meet λ̂, and
		// the optimum A_max lies in [λ_B, λ̂].
		fmt.Fprintf(w, "precision bound (λ̂): %.6g\n", res.Precision)
		fmt.Fprintf(w, "certified lower bound (λ_B): %.6g\n", lb)
	} else {
		fmt.Fprintf(w, "optimal precision (A_max): %.6g\n", res.Precision)
		if res.CriticalCycle != nil {
			fmt.Fprintf(w, "critical cycle: %v\n", res.CriticalCycle)
		}
	}
	fmt.Fprintln(w, "corrections (add to the local clock):")
	for p, c := range res.Corrections {
		fmt.Fprintf(w, "  p%-3d %+.6g\n", p, c)
	}
	fmt.Fprintf(w, "realized discrepancy (simulator ground truth): %.6g\n", rep.Realized)
}

// belowPrecision returns component i's certified lower bound λ_B when it
// lies below the component's precision, which is then the hierarchical
// solver's bound λ̂ rather than the optimum A_max.
func belowPrecision(res *clocksync.Result, i int) (float64, bool) {
	if i >= len(res.ComponentLowerBound) || i >= len(res.ComponentPrecision) {
		return 0, false
	}
	lb := res.ComponentLowerBound[i]
	return lb, lb < res.ComponentPrecision[i]
}

// printPairBounds renders the matrix of tight per-pair guarantees.
func printPairBounds(res *clocksync.Result) {
	n := len(res.Corrections)
	fmt.Println("per-pair precision bounds (seconds):")
	fmt.Printf("%6s", "")
	for q := 0; q < n; q++ {
		fmt.Printf("  %8s", fmt.Sprintf("p%d", q))
	}
	fmt.Println()
	for p := 0; p < n; p++ {
		fmt.Printf("%6s", fmt.Sprintf("p%d", p))
		for q := 0; q < n; q++ {
			b, err := res.PairBound(p, q)
			if err != nil {
				fmt.Printf("  %8s", "?")
				continue
			}
			if math.IsInf(b, 1) {
				fmt.Printf("  %8s", "inf")
				continue
			}
			fmt.Printf("  %8.4f", b)
		}
		fmt.Println()
	}
}

func printStarter() error {
	s := &scenario.Scenario{
		Processors:  4,
		Seed:        42,
		StartSpread: 2,
		Topology:    scenario.Topology{Kind: "ring"},
		DefaultLink: &scenario.LinkSpec{
			Assumption: scenario.AssumptionSpec{Kind: "symmetricBounds", LB: 0.01, UB: 0.05},
			Delays: scenario.DelaySpec{Kind: "symmetric",
				Sampler: &scenario.SamplerSpec{Kind: "uniform", Lo: 0.01, Hi: 0.05}},
		},
		Protocol: scenario.ProtocolSpec{Kind: "burst", K: 4, Spacing: 0.005, Warmup: -1},
	}
	data, err := s.Encode()
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
