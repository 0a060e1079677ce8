package clocksync

import (
	"fmt"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// Certificate is the verifier's optimality certificate for one run; see
// CheckOptimality in the verifier for field semantics.
type Certificate = verify.Certificate

// Report is the outcome of a simulated scenario run: the ground truth the
// simulator knows, the synchronization result, and the realized error.
type Report struct {
	// Starts is the true start-time vector (ground truth).
	Starts []float64
	// Result is the synchronizer's output.
	Result *Result
	// Realized is the actual residual discrepancy of the corrected clocks
	// on this execution; always <= Result.Precision.
	Realized float64
	// Certificate is the optimality verification (nil if Verify was
	// false).
	Certificate *Certificate
	// Messages is the number of delivered messages.
	Messages int
}

// SimOptions tunes RunScenarioJSON.
type SimOptions struct {
	// Verify runs the (ground-truth-assisted) optimality verification and
	// attaches the certificate.
	Verify bool
	// Trials is the number of random alternative correction vectors the
	// verification tries (default 200).
	Trials int
	// Centered selects centered corrections.
	Centered bool
	// Root fixes the zero-correction processor.
	Root ProcID
	// Parallelism bounds the worker lanes of the synchronization kernels
	// (0 = GOMAXPROCS, 1 = serial); results are identical for every value.
	Parallelism int
	// Solver overrides the synchronization backend (see WithSolver); the
	// zero value SolverAuto picks by instance size and density.
	Solver Solver
	// ClusterSize bounds the hierarchical solver's per-cluster
	// subproblems (see WithClusterSize); 0 means the default (256).
	ClusterSize int
}

// RunScenarioJSON builds a scenario from its JSON description, simulates
// it, synchronizes, and (optionally) verifies instance optimality against
// the simulator's ground truth. See internal/scenario for the schema and
// the examples/ directory for samples.
func RunScenarioJSON(data []byte, opts SimOptions) (*Report, error) {
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	built, err := sc.Build()
	if err != nil {
		return nil, err
	}
	exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
	if err != nil {
		return nil, fmt.Errorf("clocksync: simulate: %w", err)
	}
	delivered := 0
	if err := exec.EachMessage(func(model.Message) error { delivered++; return nil }); err != nil {
		return nil, err
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		return nil, err
	}
	res, err := core.SynchronizeSystem(len(built.Starts), built.Links, tab, core.DefaultMLSOptions(),
		core.Options{
			Root: int(opts.Root), Centered: opts.Centered, Parallelism: opts.Parallelism,
			Solver: opts.Solver, ClusterSize: opts.ClusterSize,
		})
	if err != nil {
		return nil, err
	}
	realized, err := core.Rho(built.Starts, res.Corrections)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Starts:   built.Starts,
		Result:   res,
		Realized: realized,
		Messages: delivered,
	}
	if opts.Verify {
		trials := opts.Trials
		if trials == 0 {
			trials = 200
		}
		cert, err := verify.CheckOptimality(exec, built.Links, core.DefaultMLSOptions(), res, trials, sc.Seed+1)
		if err != nil {
			return nil, err
		}
		rep.Certificate = cert
	}
	return rep, nil
}
