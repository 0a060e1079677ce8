// Package benchcase is the one list of benchmark cases. bench_test.go
// runs it as BenchmarkCore/<name>, and cmd/benchjson measures it into
// the BENCH_core.json ledger, which holds one row per case.
//
// A case's setup builds its input and returns one op, the timed
// operation, and a release for what the setup opened. An op fails
// rather than time the wrong thing: a Stream op fails when a solve takes
// the other path, a protocol round when its fault mix was not exercised,
// and an experiment when any verdict cell reads FAIL.
package benchcase

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"clocksync"
	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/experiments"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// Case is one benchmark case.
type Case struct {
	Name string
	// Setup builds the case and returns its op and the release of what
	// the setup opened: call release once, after the last op. A setup
	// that fails has released what it opened.
	Setup func() (op func() error, release func(), err error)
}

// All returns every case. benchjson builds every setup, then measures,
// in this order. The cases of the first 31 ledger rows keep the order
// their rows were recorded in, and later cases follow, so the recorded
// rows are measured as they were: after the same cases, with the same
// setups live.
func All() []Case {
	var cs []Case
	for _, n := range []int{8, 16, 32, 64, 128} {
		cs = append(cs, synchronize(n))
	}
	cs = append(cs,
		synchronizerReuse(64),
		stream(128, false),
		stream(128, true),
		sparseSolve("SparseSolve/n=1k", 33), // 33 cliques of 32 = 1056 > the m~s materialization cap
		sparseSolve("SparseSolve/n=10k", 313),
		sparseSystem(66, 32),
	)
	cs = append(cs, viewReduction(16, 25000)...)
	cs = append(cs, protocolRound(48))
	cs = append(cs, experimentCases()...)
	for _, n := range []int{8, 16, 32, 128} {
		cs = append(cs, synchronizerReuse(n))
	}
	for _, n := range []int{8, 32} {
		cs = append(cs, stream(n, false), stream(n, true))
	}
	cs = append(cs, observe(), scenarioEndToEnd())
	return append(cs,
		kernelFloydWarshall(128),
		kernelFloydWarshall(256), // sparse-2k's cluster size
		kernelKarp(128),
		kernelBellmanFord(128),
	)
}

// TimesDenseKernels reports whether the named case spends most of its
// time in the dense min-plus kernels of internal/graph, so that its time
// depends on the kernel level the host runs (graph.KernelLevel). The
// experiments named are those whose rows moved with the kernel bodies.
func TimesDenseKernels(name string) bool {
	for _, prefix := range []string{"Kernels/", "Synchronize/", "SynchronizerReuse/", "StreamBatch/", "SparseSolve/", "SparseSystem/"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	switch name {
	case "Experiment/A1", "Experiment/A3", "Experiment/F2", "Experiment/F4", "Experiment/T3", "Experiment/T5", "Experiment/T6":
		return true
	}
	return false
}

func nop() {}

// synchronize measures the pooled core.Synchronize wrapper, the O(n^3)
// SHIFTS pipeline of Section 4.4, on a complete n-node instance.
func synchronize(n int) Case {
	return Case{fmt.Sprintf("Synchronize/n=%d", n), func() (func() error, func(), error) {
		mls := randomCompleteMLS(n)
		return func() error {
			_, err := core.Synchronize(mls, core.Options{})
			return err
		}, nop, nil
	}}
}

// synchronizerReuse measures a held core.Synchronizer on the same
// instance: after the first call warms its scratch, a call allocates
// nothing.
func synchronizerReuse(n int) Case {
	return Case{fmt.Sprintf("SynchronizerReuse/n=%d", n), func() (func() error, func(), error) {
		mls := randomCompleteMLS(n)
		s := core.NewSynchronizer()
		opts := core.Options{Parallelism: 1}
		return func() error {
			_, err := s.Sync(mls, opts)
			return err
		}, s.Close, nil
	}}
}

func randomCompleteMLS(n int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	mls := graph.NewMatrix(n, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				mls[i][j] = 0.1 + rng.Float64()
			}
		}
	}
	return mls
}

// stream measures the streaming steady state: a tight n-ring plus one
// very slack chord, converged with traffic on every link and one solve
// cached. Each op observes an estimate one ulp below the last, then asks
// for Corrections. StreamUpdate observes on the slack chord, where no
// shortest path can use it, so the solve is served from the certified
// cache. StreamBatch observes on ring link 0->1, whose m~ls under
// SymmetricBounds(1, 3) is d~min-1, its own shortest path: the closure
// entry moves and the solve re-runs in batch, on the same instance up to
// that ulp. The pair measures what the certified cache saves. The op
// fails if a solve takes the other path.
func stream(n int, forceBatch bool) Case {
	name := fmt.Sprintf("StreamUpdate/n=%d", n)
	if forceBatch {
		name = fmt.Sprintf("StreamBatch/n=%d", n)
	}
	return Case{name, func() (func() error, func(), error) {
		ring := clocksync.MustSymmetricBounds(1, 3)
		links := make([]core.Link, 0, n+1)
		for i := 0; i < n; i++ {
			links = append(links, core.Link{P: model.ProcID(i), Q: model.ProcID((i + 1) % n), A: ring})
		}
		links = append(links, core.Link{P: 0, Q: model.ProcID(n / 2), A: clocksync.MustSymmetricBounds(0, 1e6)})
		st, err := core.NewStream(n, links, core.DefaultMLSOptions(), core.Options{Parallelism: 1})
		if err != nil {
			return nil, nil, err
		}
		if err := converge(st, n); err != nil {
			st.Close()
			return nil, nil, err
		}
		to, est, batched := model.ProcID(n/2), 5e5-1.0, int64(0)
		if forceBatch {
			to, est, batched = 1, 2, 1
		}
		return func() error {
			est = math.Nextafter(est, 0)
			if err := st.Observe(0, to, 0, est); err != nil {
				return err
			}
			before := st.Stats().Batch
			if _, err := st.Corrections(); err != nil {
				return err
			}
			if st.Stats().Batch-before != batched {
				return fmt.Errorf("solve took the wrong path (stats %+v)", st.Stats())
			}
			return nil
		}, st.Close, nil
	}}
}

// converge feeds the stream case's initial traffic and caches one solve.
func converge(st *core.Stream, n int) error {
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if err := st.Observe(model.ProcID(i), model.ProcID(j), 0, 2); err != nil {
			return err
		}
		if err := st.Observe(model.ProcID(j), model.ProcID(i), 0, 2); err != nil {
			return err
		}
	}
	if err := st.Observe(0, model.ProcID(n/2), 0, 5e5); err != nil {
		return err
	}
	if err := st.Observe(model.ProcID(n/2), 0, 0, 5e5); err != nil {
		return err
	}
	_, err := st.Corrections()
	return err
}

// sparseSolve measures a ring of cliques of 32 through the held
// Synchronizer's CSR entry point with the hierarchical backend: the
// regime the dense pipeline cannot touch (an n x n matrix at n=10k is
// ~800 MB).
func sparseSolve(name string, cliques int) Case {
	return Case{name, func() (func() error, func(), error) {
		rng := rand.New(rand.NewSource(7))
		g := graph.SparseRingOfCliques(rng, cliques, 32, 0.01, 1)
		s := core.NewSynchronizer()
		opts := core.Options{Solver: core.SolverHierarchical}
		return func() error {
			_, err := s.SyncCSR(g, opts)
			return err
		}, s.Close, nil
	}}
}

// sparseSystem measures core.SynchronizeSystem from a prebuilt
// trace.Table, as clockbench's sparse-2k runs it: the m~ls reduction
// walks the table's observed pairs (the layer the SparseSolve cases
// skip), then Auto escalates the component to the hierarchical solver.
// The system is a ring of cliques of size nodes: every pair inside a
// clique and node 0 of each clique to node 0 of the next is linked under
// SymmetricBounds(0.05, 0.2) and probed twice each way, with true delays
// drawn inside those bounds and starts in [0, 1).
func sparseSystem(cliques, size int) Case {
	n := cliques * size
	return Case{fmt.Sprintf("SparseSystem/n=%d", n), func() (func() error, func(), error) {
		a := clocksync.MustSymmetricBounds(0.05, 0.2)
		rng := rand.New(rand.NewSource(7))
		starts := make([]float64, n)
		for p := range starts {
			starts[p] = rng.Float64()
		}
		tab := trace.NewTable(n, false)
		var links []core.Link
		link := func(p, q int) error {
			links = append(links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: a})
			for k := 0; k < 4; k++ {
				from, to := p, q
				if k%2 == 1 {
					from, to = q, p
				}
				send := 1 + rng.Float64()
				recv := send + 0.05 + 0.15*rng.Float64()
				if err := tab.Add(trace.Sample{From: model.ProcID(from), To: model.ProcID(to),
					SendClock: send - starts[from], RecvClock: recv - starts[to]}); err != nil {
					return err
				}
			}
			return nil
		}
		for c := 0; c < cliques; c++ {
			base := c * size
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					if err := link(base+i, base+j); err != nil {
						return nil, nil, err
					}
				}
			}
			if err := link(base, (c+1)%cliques*size); err != nil {
				return nil, nil, err
			}
		}
		return func() error {
			_, err := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), core.Options{})
			return err
		}, nop, nil
	}}
}

// viewReduction returns the two cases of the Lemma 6.1 view reduction on
// the input shape of clockbench's trace-heavy workload: msgs messages
// over the complete graph on n processors, one every millisecond of real
// time between random endpoints with delays in [0.01, 0.1) s, so
// messages overtake each other at the receivers. Build logs the message
// records into a fresh builder and builds it, so every op pays the sort
// of the out-of-order receiver logs and the validation; an op cannot
// keep the recording outside the timer, so the row times recording plus
// Build. Collect reduces one built execution to a trace.Table. Both
// cases share the records and that execution, made by whichever setup
// runs first.
func viewReduction(n, msgs int) []Case {
	type record struct {
		from, to    model.ProcID
		sendReal, d float64
	}
	var (
		starts  []float64
		records []record
		e       *model.Execution
	)
	build := func() (*model.Execution, error) {
		b := model.NewBuilder(starts)
		for _, r := range records {
			if _, err := b.AddMessageDelay(r.from, r.to, r.sendReal, r.d); err != nil {
				return nil, err
			}
		}
		return b.Build()
	}
	setup := func() error {
		if e != nil {
			return nil
		}
		rng := rand.New(rand.NewSource(3))
		starts = make([]float64, n)
		for p := range starts {
			starts[p] = rng.Float64()
		}
		records = make([]record, msgs)
		for k := range records {
			from := rng.Intn(n)
			to := (from + 1 + rng.Intn(n-1)) % n
			records[k] = record{model.ProcID(from), model.ProcID(to), 1 + float64(k)*1e-3, 0.01 + 0.09*rng.Float64()}
		}
		var err error
		e, err = build()
		return err
	}
	return []Case{
		{fmt.Sprintf("ViewReduction/Build/msgs=%dk", msgs/1000), func() (func() error, func(), error) {
			return func() error {
				_, err := build()
				return err
			}, nop, setup()
		}},
		{fmt.Sprintf("ViewReduction/Collect/msgs=%dk", msgs/1000), func() (func() error, func(), error) {
			return func() error {
				_, err := trace.Collect(e, false)
				return err
			}, nop, setup()
		}},
	}
}

// protocolRound measures one round of the §7 leader protocol on the
// simulator with clockbench protocol-faulty's fault mix: n nodes on a
// random connected graph (edge probability 0.15), 4 probes per link
// direction, 2 re-floods, 1% message loss, an inflating Byzantine
// reporter, a crash before the victim's report, authenticated reports
// and excision. The simulator and the floods are nearly all of it; the
// leader's solve is a sliver. The op fails unless the round excised the
// liar and computed degraded.
func protocolRound(n int) Case {
	return Case{fmt.Sprintf("ProtocolRound/n=%d", n), func() (func() error, func(), error) {
		rng := rand.New(rand.NewSource(5))
		pairs := sim.RandomConnected(rng, n, 0.15)
		a := clocksync.MustSymmetricBounds(0.05, 0.2)
		links := make([]core.Link, len(pairs))
		for i, e := range pairs {
			links[i] = core.Link{P: model.ProcID(e.P), Q: model.ProcID(e.Q), A: a}
		}
		net, err := sim.NewNetwork(sim.UniformStarts(rng, n, 1), pairs, func(sim.Pair) sim.LinkDelays {
			return sim.Symmetric(sim.Uniform{Lo: 0.05, Hi: 0.2})
		})
		if err != nil {
			return nil, nil, err
		}
		cfg := dist.Config{
			Leader: 0, Links: links, Probes: 4, Spacing: 0.01, Warmup: 1.5, Window: 1,
			ReportGrace: 2, Retries: 2, Excision: true, AuthKeys: dist.DeriveKeys(n, 9),
		}
		faults := &sim.Faults{
			Loss:      0.01,
			Byzantine: []sim.Byzantine{{Proc: n - 1, Strategy: sim.ByzInflate, Magnitude: 0.25}},
			Crashes:   []sim.Crash{{Proc: n / 2, At: cfg.Warmup + cfg.Window/2}},
		}
		return func() error {
			out, _, err := dist.Run(net, cfg, sim.RunConfig{Seed: 11, Faults: faults})
			if err != nil {
				return err
			}
			if !out.Degraded || len(out.Excised) == 0 {
				return fmt.Errorf("fault mix not exercised: degraded %v, excised %v", out.Degraded, out.Excised)
			}
			return nil
		}, nop, nil
	}}
}

// experimentCases returns one case per registered experiment, each
// regenerating its table at seed 12345 end to end. The table's verdict
// columns carry the correctness checks, so an op fails when the claim no
// longer reproduces. Series T, F and D come first, in the order their
// rows were first recorded; the rest follow in ID order.
func experimentCases() []Case {
	exps := experiments.All()
	series := func(id string) int {
		if i := strings.IndexByte("TFD", id[0]); i >= 0 {
			return i
		}
		return 3
	}
	sort.SliceStable(exps, func(i, j int) bool { return series(exps[i].ID) < series(exps[j].ID) })
	cs := make([]Case, len(exps))
	for i, exp := range exps {
		cs[i] = Case{"Experiment/" + exp.ID, func() (func() error, func(), error) {
			return func() error {
				tab, err := exp.Run(12345)
				if err != nil {
					return err
				}
				return verdicts(tab)
			}, nop, nil
		}}
	}
	return cs
}

// verdicts fails on the first FAIL cell of tab.
func verdicts(tab *experiments.Table) error {
	for _, row := range tab.Rows {
		for _, cell := range row {
			if cell == "FAIL" {
				return fmt.Errorf("%s: FAIL verdict in %v", tab.ID, row)
			}
		}
	}
	return nil
}

// observe measures the per-message cost of feeding the public Recorder.
func observe() Case {
	return Case{"Observe", func() (func() error, func(), error) {
		rec := clocksync.NewRecorder(16)
		i := 0
		return func() error {
			from := clocksync.ProcID(i % 16)
			to := clocksync.ProcID((i + 1) % 16)
			err := rec.Observe(from, to, float64(i), float64(i)+0.01)
			i++
			return err
		}, nop, nil
	}}
}

// scenarioEndToEnd measures a full simulate-and-synchronize run of an
// 8-node ring scenario through the public JSON entry point.
func scenarioEndToEnd() Case {
	return Case{"ScenarioEndToEnd", func() (func() error, func(), error) {
		cfg := []byte(`{
			"processors": 8,
			"seed": 11,
			"startSpread": 2,
			"topology": {"kind": "ring"},
			"defaultLink": {
				"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
				"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
			},
			"protocol": {"kind": "burst", "k": 4, "spacing": 0.01, "warmup": -1}
		}`)
		return func() error {
			_, err := clocksync.RunScenarioJSON(cfg, clocksync.SimOptions{})
			return err
		}, nop, nil
	}}
}

// kernelGraph is the input of the Kernels cases: a strongly connected
// n-node graph with edge density p and weights in [0.1, 1], as
// internal/graph's kernel benchmarks build it.
func kernelGraph(n int, p float64) *graph.Dense {
	return graph.RandomStronglyConnected(rand.New(rand.NewSource(7)), n, p, 0.1, 1.0)
}

// kernelFloydWarshall measures the GLOBAL ESTIMATES closure alone
// (Theorem 5.5): graph.FloydWarshallDense on one lane, from a fresh copy
// of a graph of density 0.2.
func kernelFloydWarshall(n int) Case {
	return Case{fmt.Sprintf("Kernels/FloydWarshall/n=%d", n), func() (func() error, func(), error) {
		src, d := kernelGraph(n, 0.2), graph.NewDense(n)
		return func() error {
			d.CopyFrom(src)
			return graph.FloydWarshallDense(d, nil)
		}, nop, nil
	}}
}

// kernelKarp measures A_max alone (Theorem 4.6): Karp's walk table and
// the critical cycle, graph.MaxMeanCycleDense on one lane, on a complete
// graph, the closure the pipeline hands it.
func kernelKarp(n int) Case {
	return Case{fmt.Sprintf("Kernels/Karp/n=%d", n), func() (func() error, func(), error) {
		src := kernelGraph(n, 1)
		comp := make([]int, n)
		for i := range comp {
			comp[i] = i
		}
		var scratch graph.KarpScratch
		return func() error {
			if _, ok := graph.MaxMeanCycleDense(src, comp, &scratch, nil); !ok {
				return fmt.Errorf("Kernels/Karp/n=%d: no cycle", n)
			}
			return nil
		}, nop, nil
	}}
}

// kernelBellmanFord measures the relaxation behind the corrections:
// graph.BellmanFordDense from node 0 on a graph of density 0.3.
func kernelBellmanFord(n int) Case {
	return Case{fmt.Sprintf("Kernels/BellmanFord/n=%d", n), func() (func() error, func(), error) {
		src := kernelGraph(n, 0.3)
		src.FillDiag(graph.Inf)
		dist, parent := make([]float64, n), make([]int, n)
		return func() error {
			return graph.BellmanFordDense(src, 0, dist, parent)
		}, nop, nil
	}}
}
