package genfuzz

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync/internal/baseline"
	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// Finding categories. Shrinking preserves the category, so a reproducer
// stays a witness for the defect class that produced it.
const (
	// CatBuild: the generated scenario failed to build or simulate — a
	// generator/scenario contract violation.
	CatBuild = "build"
	// CatErrorDivergence: one backend rejected an instance another
	// accepted.
	CatErrorDivergence = "error-divergence"
	// CatSolverMismatch: two exact backends disagreed bit for bit.
	CatSolverMismatch = "solver-mismatch"
	// CatHierarchy: the hierarchical solver's certificate is unsound
	// (below the optimum, or a pair bound exceeds it).
	CatHierarchy = "hierarchy-unsound"
	// CatStream: incremental streaming replay diverged from batch.
	CatStream = "stream-divergence"
	// CatAdmissibility: a sound instance produced an execution violating
	// its own declared assumptions.
	CatAdmissibility = "admissibility"
	// CatOptimality: the brute-force verifier refuted Lemma 4.5 /
	// Theorem 4.6 on the result.
	CatOptimality = "optimality"
	// CatCertificate: the critical cycle does not certify the claimed
	// precision against ground truth.
	CatCertificate = "certificate"
	// CatBaseline: a baseline synchronizer achieved a guaranteed
	// precision below the claimed optimum — impossible if A_max is right.
	CatBaseline = "baseline-beats-optimum"
	// CatProtocol: the distributed protocol (internal/dist) disagreed with
	// the centralized computation on its own table, gossip nodes disagreed
	// with the leader, or a faulty run broke its precision promise.
	CatProtocol = "protocol"
	// CatPanic: some stage of the pipeline panicked.
	CatPanic = "panic"
)

// Finding is one oracle disagreement on one instance.
type Finding struct {
	Category string `json:"category"`
	// Backend names the solver/engine that diverged, when meaningful.
	Backend string `json:"backend,omitempty"`
	// Detail is a human-readable description with the diverging values.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	if f.Backend != "" {
		return fmt.Sprintf("[%s/%s] %s", f.Category, f.Backend, f.Detail)
	}
	return fmt.Sprintf("[%s] %s", f.Category, f.Detail)
}

// Oracle cross-checks one instance against every independent computation
// of the same answer. The zero value is ready; fields override defaults.
type Oracle struct {
	// Trials is the number of random alternative correction vectors the
	// brute-force optimality check tries (default 12).
	Trials int
	// Tol is the certificate tolerance (default 1e-9, the repo standard).
	Tol float64
	// HierClusterSize forces the two-level hierarchical solver by
	// clustering at this size (default 8), so tiny instances still
	// exercise the contraction path; its results are checked for
	// soundness, not bit-identity.
	HierClusterSize int
	// Mutate, when non-nil, perturbs each backend's result after a
	// successful solve — the fault-injection hook that lets tests and
	// cmd/genfuzz -inject prove the harness catches a buggy solver.
	Mutate func(solver core.Solver, res *core.Result)
}

func (o *Oracle) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	return 12
}

func (o *Oracle) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return 1e-9
}

func (o *Oracle) hierClusterSize() int {
	if o.HierClusterSize > 0 {
		return o.HierClusterSize
	}
	return 8
}

// Check runs the full differential oracle on one instance and returns
// every disagreement found. An empty slice is the expected outcome. A
// panic anywhere in the pipeline is converted into a finding so the
// shrinker can minimize crashing instances like any other.
func (o *Oracle) Check(inst *Instance) (fs []Finding) {
	defer func() {
		if r := recover(); r != nil {
			fs = append(fs, Finding{Category: CatPanic, Detail: fmt.Sprintf("panic: %v", r)})
		}
	}()
	built, err := inst.Scenario.Build()
	if err != nil {
		return append(fs, Finding{Category: CatBuild, Detail: fmt.Sprintf("scenario build: %v", err)})
	}
	exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
	if err != nil {
		return append(fs, Finding{Category: CatBuild, Detail: fmt.Sprintf("sim run: %v", err)})
	}
	tab, err := trace.Collect(exec, false)
	if err != nil {
		return append(fs, Finding{Category: CatBuild, Detail: fmt.Sprintf("trace collect: %v", err)})
	}

	n := inst.Scenario.Processors
	mopts := core.DefaultMLSOptions()
	solve := func(solver core.Solver, clusterSize int) (*core.Result, error) {
		res, err := core.SynchronizeSystem(n, built.Links, tab, mopts, core.Options{Solver: solver, ClusterSize: clusterSize})
		if err == nil && o.Mutate != nil {
			o.Mutate(solver, res)
		}
		return res, err
	}

	dense, errDense := solve(core.SolverDense, 0)
	for _, backend := range []core.Solver{core.SolverAuto, core.SolverSparse, core.SolverHierarchical} {
		got, err := solve(backend, 0)
		if (err == nil) != (errDense == nil) {
			fs = append(fs, Finding{
				Category: CatErrorDivergence, Backend: backend.String(),
				Detail: fmt.Sprintf("dense err=%v, %s err=%v", errDense, backend, err),
			})
			continue
		}
		if errDense != nil {
			continue
		}
		fs = append(fs, diffResults(backend.String(), dense, got)...)
	}

	// The genuinely two-level hierarchical path: forced small clusters.
	// Exactness is not promised, soundness is.
	if errDense == nil {
		hier, err := solve(core.SolverHierarchical, o.hierClusterSize())
		if err != nil {
			fs = append(fs, Finding{Category: CatErrorDivergence, Backend: "hierarchical-clustered",
				Detail: fmt.Sprintf("dense solved but clustered hierarchical failed: %v", err)})
		} else {
			fs = append(fs, o.checkHierarchy(dense, hier)...)
		}
	}

	fs = append(fs, o.checkStream(inst, built, exec, tab, dense, errDense)...)

	if inst.Sound && errDense == nil {
		fs = append(fs, o.checkGroundTruth(inst, built, exec, dense)...)
	}
	if inst.Sound {
		fs = append(fs, checkProtocol(inst, built)...)
	}
	return fs
}

// checkProtocol runs the Section 7 protocol on the instance's network: the
// leader variant always, the gossip variant when the run is fault-free.
// Byzantine entries are dropped first — no soundness promise covers a lie
// that stays inside the envelope. Fault-free (no crash, partition or loss,
// and a connected topology), the leader's result must be bit-identical to
// the centralized computation on the table it assembled, and every gossip
// node's vector to the leader's. Under faults the leader must fail closed
// or keep its precision promise over the synced processors that applied a
// correction.
func checkProtocol(inst *Instance, built *scenario.Built) []Finding {
	n := inst.Scenario.Processors
	runCfg := built.RunCfg
	if f := runCfg.Faults; f != nil {
		ff := *f
		ff.Byzantine, ff.Mutator = nil, nil
		runCfg.Faults = &ff
		if len(ff.Crashes) == 0 && len(ff.Partitions) == 0 && ff.Loss == 0 {
			runCfg.Faults = nil
		}
	}
	spread := sim.SafeWarmup(built.Starts)
	cfg := dist.Config{
		Leader: 0, Links: built.Links, Probes: 4, Spacing: 0.01,
		Warmup: spread + 0.5, Window: 2,
		// A grace past the start spread lets every report reach the leader
		// on a fault-free run, so its table is the full one.
		ReportGrace: 2*spread + 10,
	}
	faultFree := runCfg.Faults == nil && !lossyLinks(inst.Scenario) && connected(n, built.Links)
	out, _, err := dist.Run(built.Net, cfg, runCfg)
	if !faultFree {
		if err != nil || out.Synced == nil {
			return nil // failed closed, or the leader never computed
		}
		rho, _ := core.RhoOver(built.Starts, out.Corrections, func(p int) bool { return out.Synced[p] && out.Applied[p] })
		if rho > out.Precision+1e-9 {
			return []Finding{{Category: CatProtocol, Backend: "leader",
				Detail: fmt.Sprintf("faulty run: realized %v over synced, applied processors exceeds precision %v", rho, out.Precision)}}
		}
		return nil
	}
	if err != nil {
		return []Finding{{Category: CatProtocol, Backend: "leader", Detail: fmt.Sprintf("fault-free run: %v", err)}}
	}
	if len(out.Missing) > 0 {
		return []Finding{{Category: CatProtocol, Backend: "leader",
			Detail: fmt.Sprintf("fault-free run: reports of %v missed the deadline", out.Missing)}}
	}
	want, err := core.SynchronizeSystem(n, built.Links, out.LeaderTable, core.DefaultMLSOptions(), core.Options{Root: 0})
	if err != nil {
		return []Finding{{Category: CatProtocol, Backend: "leader", Detail: fmt.Sprintf("centralized solve of the leader table: %v", err)}}
	}
	if !out.Degraded && !bitsEq(want.Precision, out.Precision) {
		return []Finding{{Category: CatProtocol, Backend: "leader",
			Detail: fmt.Sprintf("precision %v, centralized %v", out.Precision, want.Precision)}}
	}
	for p := range want.Corrections {
		if !bitsEq(want.Corrections[p], out.Corrections[p]) {
			return []Finding{{Category: CatProtocol, Backend: "leader",
				Detail: fmt.Sprintf("correction p%d: %v, centralized %v", p, out.Corrections[p], want.Corrections[p])}}
		}
	}
	gossip, _, err := dist.GossipRun(built.Net, cfg, runCfg)
	if err != nil {
		return []Finding{{Category: CatProtocol, Backend: "gossip", Detail: fmt.Sprintf("fault-free run: %v", err)}}
	}
	for p, vec := range gossip.PerNode {
		for q := range vec {
			if !bitsEq(vec[q], out.Corrections[q]) {
				return []Finding{{Category: CatProtocol, Backend: "gossip",
					Detail: fmt.Sprintf("p%d's correction of p%d: %v, leader %v", p, q, vec[q], out.Corrections[q])}}
			}
		}
	}
	return nil
}

// lossyLinks reports whether any link of the scenario drops messages.
func lossyLinks(sc *scenario.Scenario) bool {
	if sc.DefaultLink != nil && sc.DefaultLink.Loss > 0 {
		return true
	}
	for _, l := range sc.Links {
		if l.Loss > 0 {
			return true
		}
	}
	return false
}

// connected reports whether the links join all n processors.
func connected(n int, links []core.Link) bool {
	adj := make([][]int, n)
	for _, l := range links {
		adj[l.P] = append(adj[l.P], int(l.Q))
		adj[l.Q] = append(adj[l.Q], int(l.P))
	}
	seen := make([]bool, n)
	seen[0] = true
	stack, count := []int{0}, 1
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range adj[p] {
			if !seen[q] {
				seen[q] = true
				count++
				stack = append(stack, q)
			}
		}
	}
	return count == n
}

// diffResults compares an exact backend bit for bit against the dense
// reference: corrections, precision, component structure, and the
// in-component m~s entries (the cross-component entries are the only ones
// the sparse backends legitimately leave +Inf).
func diffResults(backend string, want, got *core.Result) []Finding {
	var fs []Finding
	mism := func(detail string, args ...any) {
		fs = append(fs, Finding{Category: CatSolverMismatch, Backend: backend, Detail: fmt.Sprintf(detail, args...)})
	}
	if !bitsEq(want.Precision, got.Precision) {
		mism("precision dense=%v %s=%v", want.Precision, backend, got.Precision)
	}
	if len(want.Corrections) != len(got.Corrections) {
		mism("corrections length %d vs %d", len(want.Corrections), len(got.Corrections))
		return fs
	}
	for p := range want.Corrections {
		if !bitsEq(want.Corrections[p], got.Corrections[p]) {
			mism("correction p%d dense=%v %s=%v", p, want.Corrections[p], backend, got.Corrections[p])
			return fs
		}
	}
	if len(want.Components) != len(got.Components) {
		mism("%d vs %d components", len(want.Components), len(got.Components))
		return fs
	}
	for ci := range want.Components {
		if !intsEq(want.Components[ci], got.Components[ci]) {
			mism("component %d: %v vs %v", ci, want.Components[ci], got.Components[ci])
			return fs
		}
		if !bitsEq(want.ComponentPrecision[ci], got.ComponentPrecision[ci]) {
			mism("component %d precision dense=%v %s=%v", ci, want.ComponentPrecision[ci], backend, got.ComponentPrecision[ci])
			return fs
		}
	}
	if want.MS != nil && got.MS != nil {
		for _, comp := range want.Components {
			for _, p := range comp {
				for _, q := range comp {
					if !bitsEq(want.MS[p][q], got.MS[p][q]) {
						mism("ms[%d][%d] dense=%v %s=%v", p, q, want.MS[p][q], backend, got.MS[p][q])
						return fs
					}
				}
			}
		}
	}
	return fs
}

// checkHierarchy verifies the clustered hierarchical solve is sound: each
// component's certified precision dominates the exact optimum, and every
// in-component pair bound under the hierarchical corrections stays within
// the certificate.
func (o *Oracle) checkHierarchy(exact, hier *core.Result) []Finding {
	var fs []Finding
	tol := o.tol()
	if len(hier.Components) != len(exact.Components) {
		return append(fs, Finding{Category: CatHierarchy, Backend: "hierarchical-clustered",
			Detail: fmt.Sprintf("%d vs %d components", len(hier.Components), len(exact.Components))})
	}
	for ci, comp := range exact.Components {
		lam := hier.ComponentPrecision[ci]
		opt := exact.ComponentPrecision[ci]
		if math.IsInf(opt, 1) != math.IsInf(lam, 1) {
			fs = append(fs, Finding{Category: CatHierarchy, Backend: "hierarchical-clustered",
				Detail: fmt.Sprintf("component %d: certified %v vs optimum %v disagree about finiteness", ci, lam, opt)})
			continue
		}
		if math.IsInf(opt, 1) {
			continue
		}
		if lam < opt-tol {
			fs = append(fs, Finding{Category: CatHierarchy, Backend: "hierarchical-clustered",
				Detail: fmt.Sprintf("component %d: certified precision %v below optimum %v", ci, lam, opt)})
		}
		if exact.MS == nil {
			continue
		}
		for _, p := range comp {
			for _, q := range comp {
				if p == q {
					continue
				}
				if b := exact.MS[p][q] + hier.Corrections[q] - hier.Corrections[p]; b > lam+1e-6 {
					fs = append(fs, Finding{Category: CatHierarchy, Backend: "hierarchical-clustered",
						Detail: fmt.Sprintf("pair (%d,%d): bound %v exceeds certificate %v", p, q, b, lam)})
					return fs
				}
			}
		}
	}
	return fs
}

// checkStream replays the execution's message stream through the
// incremental engine — in a seed-derived random interleaving, with a
// mid-stream checkpoint — and demands bit-identity with a batch solve of
// the same observations.
func (o *Oracle) checkStream(inst *Instance, built *scenario.Built, exec *model.Execution, tab *trace.Table, dense *core.Result, errDense error) []Finding {
	n := inst.Scenario.Processors
	msgs, err := exec.Messages()
	if err != nil {
		return []Finding{{Category: CatBuild, Detail: fmt.Sprintf("messages: %v", err)}}
	}
	samples := make([]trace.Sample, len(msgs))
	for i, m := range msgs {
		samples[i] = trace.Sample{From: m.From, To: m.To, SendClock: m.SendClock, RecvClock: m.RecvClock}
	}
	// Observation order is a free choice of the deployment, so exercise a
	// random interleaving instead of delivery order. DirStats folding is
	// commutative, so the final state must match the batch table exactly.
	rng := rand.New(rand.NewSource(inst.Seed ^ 0x5ee0))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })

	st, err := core.NewStream(n, built.Links, core.DefaultMLSOptions(), core.Options{})
	if err != nil {
		return []Finding{{Category: CatStream, Backend: "stream", Detail: fmt.Sprintf("NewStream: %v", err)}}
	}
	defer st.Close()
	// Internal cross-check mode: every Corrections call is compared against
	// a fresh batch solve inside the Stream itself; a mismatch surfaces as
	// an error, which the checkpoint comparison below reports as stream
	// divergence.
	st.SetCrossCheck(true)

	var fs []Finding
	partial := trace.NewTable(n, false)
	checkpoint := 0
	if len(samples) > 1 {
		checkpoint = 1 + rng.Intn(len(samples)-1)
	}
	compare := func(at string, tb *trace.Table) bool {
		got, errStream := st.Corrections()
		if errStream == nil {
			got = got.Clone() // detach from the Stream's double buffer
		}
		want, errBatch := core.SynchronizeSystem(n, built.Links, tb, core.DefaultMLSOptions(), core.Options{})
		if (errStream == nil) != (errBatch == nil) {
			fs = append(fs, Finding{Category: CatStream, Backend: "stream",
				Detail: fmt.Sprintf("%s: stream err=%v batch err=%v", at, errStream, errBatch)})
			return false
		}
		if errStream != nil {
			return true // both rejected identically
		}
		if !bitsEq(got.Precision, want.Precision) {
			fs = append(fs, Finding{Category: CatStream, Backend: "stream",
				Detail: fmt.Sprintf("%s: precision stream=%v batch=%v", at, got.Precision, want.Precision)})
			return false
		}
		for p := range want.Corrections {
			if !bitsEq(got.Corrections[p], want.Corrections[p]) {
				fs = append(fs, Finding{Category: CatStream, Backend: "stream",
					Detail: fmt.Sprintf("%s: correction p%d stream=%v batch=%v", at, p, got.Corrections[p], want.Corrections[p])})
				return false
			}
		}
		return true
	}
	for i, s := range samples {
		if err := st.Observe(s.From, s.To, s.SendClock, s.RecvClock); err != nil {
			return append(fs, Finding{Category: CatStream, Backend: "stream",
				Detail: fmt.Sprintf("observe %d (p%d->p%d): %v", i, s.From, s.To, err)})
		}
		if err := partial.Add(s); err != nil {
			return append(fs, Finding{Category: CatBuild, Detail: fmt.Sprintf("table add: %v", err)})
		}
		if i+1 == checkpoint {
			if !compare(fmt.Sprintf("checkpoint %d/%d", checkpoint, len(samples)), partial) {
				return fs
			}
		}
	}
	// Final state must also agree with the delivery-order batch table —
	// the shuffled table and tab summarize the same multiset of samples.
	if !compare("final", tab) {
		return fs
	}
	if errDense == nil && len(samples) > 0 {
		got, err := st.Corrections()
		if err == nil {
			got = got.Clone() // detach from the Stream's double buffer
		}
		if err != nil {
			fs = append(fs, Finding{Category: CatStream, Backend: "stream",
				Detail: fmt.Sprintf("final corrections: %v", err)})
		} else if !bitsEq(got.Precision, dense.Precision) {
			fs = append(fs, Finding{Category: CatStream, Backend: "stream",
				Detail: fmt.Sprintf("final precision %v vs dense reference %v", got.Precision, dense.Precision)})
		}
	}
	return fs
}

// checkGroundTruth runs the brute-force verifier on sound instances: the
// execution must be admissible, the certificate of Lemma 4.5/Theorem 4.6
// must close, the critical cycle must certify against true shifts, and no
// baseline may guarantee better precision than the claimed optimum.
func (o *Oracle) checkGroundTruth(inst *Instance, built *scenario.Built, exec *model.Execution, dense *core.Result) []Finding {
	var fs []Finding
	mopts := core.DefaultMLSOptions()
	if err := verify.CheckAdmissible(exec, built.Links, mopts); err != nil {
		return append(fs, Finding{Category: CatAdmissibility, Detail: err.Error()})
	}
	cert, err := verify.CheckOptimality(exec, built.Links, mopts, dense, o.trials(), inst.Seed^0x0b5e55ed)
	if err != nil {
		return append(fs, Finding{Category: CatOptimality, Detail: fmt.Sprintf("verifier: %v", err)})
	}
	if err := cert.Ok(o.tol()); err != nil {
		fs = append(fs, Finding{Category: CatOptimality, Detail: err.Error()})
	}
	if dense.CriticalCycle != nil {
		if _, err := verify.ExactCertificate(exec, built.Links, mopts, dense); err != nil {
			fs = append(fs, Finding{Category: CatCertificate, Detail: err.Error()})
		}
	}
	if len(dense.Components) == 1 && !math.IsInf(dense.Precision, 1) {
		fs = append(fs, o.checkBaselines(inst, built, exec, dense)...)
	}
	return fs
}

// checkBaselines evaluates every baseline synchronizer's guaranteed
// precision from ground truth: by Theorem 4.4 none can beat A_max. A
// baseline that errors (disconnected traffic, incomplete graph) simply
// abstains.
func (o *Oracle) checkBaselines(inst *Instance, built *scenario.Built, exec *model.Execution, dense *core.Result) []Finding {
	msTrue, err := verify.TrueMS(exec, built.Links, core.DefaultMLSOptions())
	if err != nil {
		return []Finding{{Category: CatOptimality, Detail: fmt.Sprintf("true ms: %v", err)}}
	}
	starts := exec.Starts()
	var fs []Finding
	for _, b := range []baseline.Baseline{baseline.NoOp{}, baseline.MidpointTree{}, baseline.LLAverage{}} {
		corr, err := b.Corrections(exec, model.ProcID(dense.Components[0][0]))
		if err != nil {
			continue
		}
		rb, err := verify.RhoBar(starts, msTrue, corr)
		if err != nil {
			continue
		}
		if rb < dense.Precision-o.tol() {
			fs = append(fs, Finding{Category: CatBaseline, Backend: b.Name(),
				Detail: fmt.Sprintf("baseline %s guarantees %v < claimed optimum %v", b.Name(), rb, dense.Precision)})
		}
	}
	return fs
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
