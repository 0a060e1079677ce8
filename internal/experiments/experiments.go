// Package experiments regenerates every table and figure of the
// evaluation. The PODC'93 paper is pure theory (no empirical section), so
// the suite derives one experiment from each quantitative claim; DESIGN.md
// section 4 is the index and EXPERIMENTS.md records expected vs measured.
//
// Every experiment is a deterministic function of its seed and returns a
// Table (figures are tables whose rows are the series points).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// Table is a rendered experiment result. Figures are encoded as tables of
// series points.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement this experiment validates
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) error {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\nClaim: %s\n", t.ID, t.Title, t.Claim); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) (*Table, error)
}

// All returns the registered experiments in index order.
func All() []Experiment {
	exps := []Experiment{
		{"T1", "Two-processor bounds model", T1TwoProcBounds},
		{"T2", "Instance optimality", T2Optimality},
		{"T3", "Optimal vs baselines across topologies", T3Baselines},
		{"T4", "Mixed delay assumptions", T4Mixture},
		{"T5", "Decomposition theorem", T5Decomposition},
		{"T6", "Worst-case instances vs the Lundelius-Lynch bound", T6WorstCase},
		{"F1", "Precision vs uncertainty", F1UncertaintySweep},
		{"F2", "No-bounds model: precision vs messages", F2AsyncMessages},
		{"F3", "Bias model: precision vs bias bound", F3BiasSweep},
		{"F4", "Pipeline runtime scaling", F4Scaling},
		{"F5", "Precision vs ring size", F5RingDiameter},
		{"F6", "View reduction throughput", F6TraceReduction},
		{"D1", "Bounded clock drift", D1Drift},
		{"D2", "Fault tolerance: degraded quorum", D2FaultTolerance},
		{"D3", "Byzantine resilience: excision and authentication", D3ByzantineResilience},
		{"P1", "Probabilistic delays", P1Probabilistic},
		{"X1", "Distributed leader protocol", X1Distributed},
		{"A1", "Ablation: correction style", A1CorrectionStyle},
		{"A2", "Ablation: implicit non-negativity", A2NonnegativeOption},
		{"T7", "Congestion episodes", T7Congestion},
		{"A3", "Ablation: graph algorithms", A3GraphAlgorithms},
		{"F7", "Paired bias under varying load", F7PairedBias},
		{"F8", "Per-pair precision bounds", F8PairBounds},
	}
	sort.SliceStable(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// TimingDependent reports whether an experiment's table embeds wall-clock
// measurements, making its output machine-dependent: those tables cannot
// be compared against golden snapshots (neither by the golden tests here
// nor by cmd/experiments -golden).
func TimingDependent(id string) bool { return timingIDs[strings.ToUpper(id)] }

var timingIDs = map[string]bool{"F4": true, "F6": true, "A3": true}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// run bundles everything one simulated synchronization produces.
type run struct {
	exec   *model.Execution
	starts []float64
	links  []core.Link
	res    *core.Result
}

var (
	ring     = scenario.Topology{Kind: "ring"}
	complete = scenario.Topology{Kind: "complete"}
	noBounds = scenario.AssumptionSpec{Kind: "noBounds"}
)

// instance declares n processors on topo, every link declared and drawn
// as link, with start times drawn from [0, 2) and a burst of k messages
// per link direction, 3 ms apart, from the automatic warmup on.
func instance(n int, seed int64, topo scenario.Topology, link *scenario.LinkSpec, k int) scenario.Scenario {
	return scenario.Scenario{Processors: n, Seed: seed, StartSpread: 2, Topology: topo, DefaultLink: link,
		Protocol: scenario.ProtocolSpec{Kind: "burst", K: k, Spacing: 0.003, Warmup: -1}}
}

// build builds s. A non-nil rng is a stream the experiment shares across
// its instances: the start times and then the run seed are its next
// draws, so the instance is not replayable from its JSON alone.
func build(s scenario.Scenario, rng *rand.Rand) (*scenario.Built, error) {
	if rng != nil {
		s.Starts = sim.UniformStarts(rng, s.Processors, s.StartSpread)
	}
	b, err := s.Build()
	if err != nil || rng == nil {
		return b, err
	}
	b.RunCfg.Seed = rng.Int63()
	return b, nil
}

// simulate runs a built instance's protocol, reduces the views and
// synchronizes under opts.
func simulate(b *scenario.Built, opts core.Options) (*run, error) {
	exec, err := sim.Run(b.Net, b.Factory, b.RunCfg)
	if err != nil {
		return nil, err
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		return nil, err
	}
	res, err := core.SynchronizeSystem(len(b.Starts), b.Links, tab, core.DefaultMLSOptions(), opts)
	if err != nil {
		return nil, err
	}
	return &run{exec: exec, starts: b.Starts, links: b.Links, res: res}, nil
}

// rhoBarOf evaluates the guaranteed precision of arbitrary corrections on
// the run's instance.
func (r *run) rhoBarOf(x []float64) (float64, error) {
	ms, err := verify.TrueMS(r.exec, r.links, core.DefaultMLSOptions())
	if err != nil {
		return 0, err
	}
	return verify.RhoBar(r.starts, ms, x)
}

func f(x float64) string { return fmt.Sprintf("%.6g", x) }
func fi(x int) string    { return fmt.Sprintf("%d", x) }
func fb(ok bool) string { // verdicts
	if ok {
		return "ok"
	}
	return "FAIL"
}

// link declares assumption a on a link whose delays are drawn from d.
func link(a scenario.AssumptionSpec, d scenario.DelaySpec) *scenario.LinkSpec {
	return &scenario.LinkSpec{Assumption: a, Delays: d}
}

func symBounds(lb, ub float64) scenario.AssumptionSpec {
	return scenario.AssumptionSpec{Kind: "symmetricBounds", LB: lb, UB: ub}
}

func bias(b float64) scenario.AssumptionSpec { return scenario.AssumptionSpec{Kind: "bias", B: b} }

// symmetric draws both directions' delays from s.
func symmetric(s scenario.SamplerSpec) scenario.DelaySpec {
	return scenario.DelaySpec{Kind: "symmetric", Sampler: &s}
}

func uniform(lo, hi float64) scenario.DelaySpec {
	return symmetric(scenario.SamplerSpec{Kind: "uniform", Lo: lo, Hi: hi})
}

// midpoint declares [lb, lb+u] bounds on a link whose every delay is
// the midpoint, which isolates the analytic precision.
func midpoint(lb, u float64) *scenario.LinkSpec {
	return link(symBounds(lb, lb+u), symmetric(scenario.SamplerSpec{Kind: "constant", D: lb + u/2}))
}

// must builds an assumption declared with valid parameters.
func must(a scenario.AssumptionSpec) delay.Assumption {
	built, err := a.Build()
	if err != nil {
		panic(err) // the parameters are in range by construction
	}
	return built
}

// linksOn declares a on every pair, oriented p < q.
func linksOn(pairs []sim.Pair, a delay.Assumption) []core.Link {
	links := make([]core.Link, len(pairs))
	for i, e := range pairs {
		links[i] = core.Link{P: model.ProcID(min(e.P, e.Q)), Q: model.ProcID(max(e.P, e.Q)), A: a}
	}
	return links
}

// Markdown writes the table as GitHub-flavored markdown (used by the
// -md report mode of cmd/experiments).
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s: %s\n\n*%s*\n\n", t.ID, t.Title, t.Claim); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
