package clocksync

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/experiments"
	"clocksync/internal/graph"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// One benchmark per evaluation table/figure (DESIGN.md section 4). Each
// regenerates its experiment end to end; the experiment's own verdict
// columns carry the correctness checks, so a benchmark failure means the
// claim no longer reproduces.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run(12345)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		for _, row := range tab.Rows {
			for _, cell := range row {
				if cell == "FAIL" {
					b.Fatalf("%s: FAIL verdict in %v", id, row)
				}
			}
		}
	}
}

func BenchmarkT1TwoProcBounds(b *testing.B)    { benchExperiment(b, "T1") }
func BenchmarkT2Optimality(b *testing.B)       { benchExperiment(b, "T2") }
func BenchmarkT3Baselines(b *testing.B)        { benchExperiment(b, "T3") }
func BenchmarkT4Mixture(b *testing.B)          { benchExperiment(b, "T4") }
func BenchmarkT5Decomposition(b *testing.B)    { benchExperiment(b, "T5") }
func BenchmarkT6WorstCase(b *testing.B)        { benchExperiment(b, "T6") }
func BenchmarkF1UncertaintySweep(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkF2AsyncMessages(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkF3BiasSweep(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkF4Scaling(b *testing.B)          { benchExperiment(b, "F4") }
func BenchmarkF5RingDiameter(b *testing.B)     { benchExperiment(b, "F5") }
func BenchmarkF6TraceReduction(b *testing.B)   { benchExperiment(b, "F6") }

// Extension experiments (paper §7 open questions + design ablations).
func BenchmarkD1Drift(b *testing.B)             { benchExperiment(b, "D1") }
func BenchmarkD2FaultTolerance(b *testing.B)    { benchExperiment(b, "D2") }
func BenchmarkP1Probabilistic(b *testing.B)     { benchExperiment(b, "P1") }
func BenchmarkX1Distributed(b *testing.B)       { benchExperiment(b, "X1") }
func BenchmarkA1CorrectionStyle(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkA2NonnegativeOption(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkSynchronize measures the core SHIFTS pipeline alone (the O(n^3)
// cost of Section 4.4) at several system sizes.
func BenchmarkSynchronize(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			mls := graph.NewMatrix(n, 0)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						mls[i][j] = 0.1 + rng.Float64()
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Synchronize(mls, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynchronizerReuse measures the steady-state cost of a reused
// core.Synchronizer: after warmup every buffer is recycled, so allocs/op
// must read 0 (the zero-allocation contract documented in
// docs/performance.md and enforced by TestSynchronizerSteadyStateAllocs).
func BenchmarkSynchronizerReuse(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			mls := graph.NewMatrix(n, 0)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						mls[i][j] = 0.1 + rng.Float64()
					}
				}
			}
			s := core.NewSynchronizer()
			defer s.Close()
			opts := core.Options{Parallelism: 1}
			if _, err := s.Sync(mls, opts); err != nil { // warm the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sync(mls, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseSystem measures core.SynchronizeSystem from a prebuilt
// trace.Table on a 66x32 ring of cliques (2112 nodes), the input of
// clockbench's sparse-2k: the m~ls reduction walks the table's observed
// pairs, then Auto escalates the component to the hierarchical solver.
// The same instance is benchjson's SparseSystem/n=2112.
func BenchmarkSparseSystem(b *testing.B) {
	const cliques, size = 66, 32
	a := MustSymmetricBounds(0.05, 0.2)
	rng := rand.New(rand.NewSource(7))
	n := cliques * size
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = rng.Float64()
	}
	tab := trace.NewTable(n, false)
	var links []core.Link
	link := func(p, q int) {
		links = append(links, core.Link{P: ProcID(p), Q: ProcID(q), A: a})
		for k := 0; k < 4; k++ {
			from, to := p, q
			if k%2 == 1 {
				from, to = q, p
			}
			send := 1 + rng.Float64()
			recv := send + 0.05 + 0.15*rng.Float64()
			if err := tab.Add(trace.Sample{From: ProcID(from), To: ProcID(to),
				SendClock: send - starts[from], RecvClock: recv - starts[to]}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				link(base+i, base+j)
			}
		}
		link(base, (c+1)%cliques*size)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProtocolRound measures one round of the §7 leader protocol on
// the simulator with clockbench protocol-faulty's fault mix: 48 nodes on
// a random connected graph (edge probability 0.15), 4 probes per link
// direction, 2 re-floods, 1% message loss, an inflating Byzantine
// reporter, a crash before the victim's report, authenticated reports and
// excision. The simulator and the floods are nearly all of it; the
// leader's solve is a sliver. The same instance is benchjson's
// ProtocolRound/n=48.
func BenchmarkProtocolRound(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(5))
	pairs := sim.RandomConnected(rng, n, 0.15)
	a := MustSymmetricBounds(0.05, 0.2)
	links := make([]core.Link, len(pairs))
	for i, e := range pairs {
		links[i] = core.Link{P: ProcID(e.P), Q: ProcID(e.Q), A: a}
	}
	net, err := sim.NewNetwork(sim.UniformStarts(rng, n, 1), pairs, func(sim.Pair) sim.LinkDelays {
		return sim.Symmetric(sim.Uniform{Lo: 0.05, Hi: 0.2})
	})
	if err != nil {
		b.Fatal(err)
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
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _, err := dist.Run(net, cfg, sim.RunConfig{Seed: 11, Faults: faults})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Degraded || len(out.Excised) == 0 {
				b.Fatalf("fault mix not exercised: degraded %v, excised %v", out.Degraded, out.Excised)
			}
		}
	})
}

// streamWorkload builds the converged steady-state instance the streaming
// benchmarks share: a tight n-ring plus one very slack chord, with initial
// traffic on every link and one solve already cached.
func streamWorkload(b *testing.B, n int) *Stream {
	b.Helper()
	sys, err := NewSystem(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.AddLink(ProcID(i), ProcID((i+1)%n), MustSymmetricBounds(1, 3)); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.AddLink(0, ProcID(n/2), MustSymmetricBounds(0, 1e6)); err != nil {
		b.Fatal(err)
	}
	st, err := sys.NewStream(WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if err := st.Observe(ProcID(i), ProcID(j), 0, 2); err != nil {
			b.Fatal(err)
		}
		if err := st.Observe(ProcID(j), ProcID(i), 0, 2); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Observe(0, ProcID(n/2), 0, 5e5); err != nil {
		b.Fatal(err)
	}
	if err := st.Observe(ProcID(n/2), 0, 0, 5e5); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Corrections(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStreamUpdate measures the steady-state incremental path: one
// genuinely tightening (but provably inert) observation on the slack chord
// plus Corrections served from the certified cache. Allocs/op must read 0;
// the acceptance gate requires >= 5x below BenchmarkStreamBatchResolve at
// n=128.
func BenchmarkStreamUpdate(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			streamTicks(b, n, 0, ProcID(n/2), 5e5-1, func(s StreamStats) int64 { return s.Cached })
		})
	}
}

// BenchmarkStreamBatchResolve runs the same workload, but each tick lowers
// the estimate on ring link 0->1. Under SymmetricBounds(1, 3) that link's
// m~ls is d~min-1, its own shortest path, so the closure entry must move,
// certification fails and every Corrections re-solves in batch: the
// denominator of the incremental speedup. The one-ulp step keeps the
// re-solved instance the one StreamUpdate serves from the cache.
func BenchmarkStreamBatchResolve(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			streamTicks(b, n, 0, 1, 2, func(s StreamStats) int64 { return s.Batch })
		})
	}
}

// streamTicks times b.N ticks on the streamWorkload instance. Each tick
// observes from->to with an estimate one ulp below the last one, starting
// from est, then calls Corrections. It fails unless the solve-path counter
// that path reads grew by exactly b.N, so a tick can never silently take
// the other path.
func streamTicks(b *testing.B, n int, from, to ProcID, est float64, path func(StreamStats) int64) {
	st := streamWorkload(b, n)
	defer st.Close()
	base := path(st.Stats())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est = math.Nextafter(est, 0)
		if err := st.Observe(from, to, 0, est); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Corrections(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := path(st.Stats()) - base; got != int64(b.N) {
		b.Fatalf("%d of %d ticks took the expected solve path (stats %+v)", got, b.N, st.Stats())
	}
}

// BenchmarkObserve measures the per-message cost of feeding the recorder.
func BenchmarkObserve(b *testing.B) {
	rec := NewRecorder(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := ProcID(i % 16)
		to := ProcID((i + 1) % 16)
		if err := rec.Observe(from, to, float64(i), float64(i)+0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioEndToEnd measures a full simulate-and-synchronize run.
func BenchmarkScenarioEndToEnd(b *testing.B) {
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenarioJSON(cfg, SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT7Congestion regenerates the congestion-episode experiment.
func BenchmarkT7Congestion(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkA3GraphAlgorithms regenerates the graph-algorithm ablation.
func BenchmarkA3GraphAlgorithms(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkF7PairedBias regenerates the paired-bias experiment.
func BenchmarkF7PairedBias(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkF8PairBounds regenerates the per-pair bound experiment.
func BenchmarkF8PairBounds(b *testing.B) { benchExperiment(b, "F8") }
