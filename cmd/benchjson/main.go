// Command benchjson measures the performance-critical benchmarks of the
// repository — the core SHIFTS pipeline at several sizes, the steady-state
// Synchronizer reuse path, the view reduction (model build and
// trace.Collect), and the T/F/D experiment series — and emits the results
// as JSON (BENCH_core.json by default).
//
// With -check FILE it instead compares a fresh measurement against a
// committed baseline and exits non-zero when any benchmark's ns/op
// regressed by more than the tolerance. Raw nanoseconds are not compared
// across machines: every run also measures a fixed calibration workload
// (serial dense Floyd-Warshall on a pinned 64-node instance), and the
// gate compares ns/op *relative to the calibration* of the same run, which
// cancels out the speed of the host.
//
// Usage:
//
//	go run ./cmd/benchjson                   # write BENCH_core.json
//	go run ./cmd/benchjson -out FILE         # write elsewhere
//	go run ./cmd/benchjson -check FILE       # regression gate vs baseline
//
// A check runs at the baseline's recorded GOMAXPROCS, so both sides of the
// comparison are measured under the same scheduler conditions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/experiments"
	"clocksync/internal/graph"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// Entry is one benchmark measurement.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// File is the on-disk schema of BENCH_core.json.
type File struct {
	// CalibrationNs is the duration of the fixed calibration workload on
	// the machine that produced this file; benchmark entries are compared
	// across machines as NsPerOp / CalibrationNs.
	CalibrationNs float64          `json:"calibration_ns"`
	GoMaxProcs    int              `json:"gomaxprocs"`
	Benchmarks    map[string]Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "file to write measurements to")
	check := flag.String("check", "", "baseline file to compare against instead of writing")
	tol := flag.Float64("tol", 0.25, "allowed relative ns/op regression in -check mode")
	quick := flag.Bool("quick", false, "tiny sizes and iteration counts (smoke testing)")
	flag.Parse()

	var base *File
	if *check != "" {
		var err error
		if base, err = loadFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: load baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: measuring at GOMAXPROCS=%d\n", matchProcs(base))
	}

	f, err := runSuite(*quick, base == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if base != nil {
		failures := compare(base, f, *tol)
		if len(failures) > 0 {
			// Before declaring a regression, re-measure just the suspects
			// with escalating round counts: on shared runners a noisy round
			// is far more likely than a real slowdown, and the minimum over
			// extra rounds converges to the true cost. A genuine regression
			// survives every retry.
			fns := map[string]func() error{}
			for _, b := range suite(*quick) {
				fns[b.name] = b.fn
			}
			for attempt := 0; attempt < 2 && len(failures) > 0; attempt++ {
				rounds, targetNs := 9+6*attempt, 60e6*float64(attempt+1)
				for _, r := range failures {
					fn, ok := fns[r.name]
					if !ok {
						continue
					}
					e, err := measure(rounds, targetNs, fn, false)
					if err == nil && e.NsPerOp < f.Benchmarks[r.name].NsPerOp {
						f.Benchmarks[r.name] = e
					}
				}
				failures = compare(base, f, *tol)
			}
		}
		for _, r := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r.msg)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline (calibration %.0f ns vs %.0f ns)\n",
			len(f.Benchmarks), *tol*100, f.CalibrationNs, base.CalibrationNs)
		return
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
}

// matchProcs sets GOMAXPROCS to the baseline's, so a check measures
// under the conditions the baseline was recorded in: allocation counts
// and ns/op both depend on the number of Ps (per-P caches, parallel
// kernels). A baseline without the field leaves the setting alone. It
// returns the value in effect.
func matchProcs(base *File) int {
	if base.GoMaxProcs > 0 {
		runtime.GOMAXPROCS(base.GoMaxProcs)
	}
	return runtime.GOMAXPROCS(0)
}

// runSuite measures every benchmark and the calibration workload. The
// calibration is sampled once before every benchmark (and at both ends)
// with the global minimum kept, so it reflects the machine's peak speed
// over the same time span the benchmarks ran in — a single calibration
// burst at process start would couple every ratio to whatever the host
// happened to be doing in those few milliseconds.
// When writing a baseline, each benchmark records its *median* round; in
// check mode the *minimum* round is used. The asymmetry is deliberate:
// the baseline is a typical cost with built-in headroom, the check is a
// best-case cost, so scheduler noise can only produce false passes —
// never false failures — while a genuine regression beyond the tolerance
// still exceeds the median baseline from every round.
func runSuite(quick, baseline bool) (*File, error) {
	f := &File{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Entry{},
	}
	cal := newCalibrator(quick)
	cal.round()

	rounds, targetNs := 5, 30e6
	if quick {
		rounds, targetNs = 2, 2e6
	}
	for _, b := range suite(quick) {
		cal.round()
		e, err := measure(rounds, targetNs, b.fn, baseline)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		f.Benchmarks[b.name] = e
	}
	cal.round()
	f.CalibrationNs = cal.best
	return f, nil
}

type bench struct {
	name string
	fn   func() error
}

// suite assembles the measured benchmarks: the pooled Synchronize wrapper
// across sizes, the zero-allocation Synchronizer reuse path, the streaming
// and sparse solves, the view reduction, and one entry per T/F/D
// experiment.
func suite(quick bool) []bench {
	var bs []bench

	sizes := []int{8, 16, 32, 64, 128}
	expIDs := []string{
		"T1", "T2", "T3", "T4", "T5", "T6", "T7",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"D1", "D2",
	}
	if quick {
		sizes = []int{8, 16}
		expIDs = []string{"T1"}
	}

	for _, n := range sizes {
		mls := randomCompleteMLS(n)
		bs = append(bs, bench{
			name: fmt.Sprintf("Synchronize/n=%d", n),
			fn: func() error {
				_, err := core.Synchronize(mls, core.Options{})
				return err
			},
		})
	}

	reuseN := 64
	if quick {
		reuseN = 16
	}
	{
		mls := randomCompleteMLS(reuseN)
		s := core.NewSynchronizer()
		opts := core.Options{Parallelism: 1}
		bs = append(bs, bench{
			name: fmt.Sprintf("SynchronizerReuse/n=%d", reuseN),
			fn: func() error {
				_, err := s.Sync(mls, opts)
				return err
			},
		})
	}

	// Streaming steady state: one new, genuinely tightening observation
	// folded into a converged n-node instance, then Corrections.
	// StreamUpdate tightens the slack chord, which is certifiably inert, so
	// it is served from the cache; StreamBatch tightens a ring link whose
	// own closure entry must move, so it re-solves in batch. The pair
	// measures the speedup the incremental engine buys.
	streamN := 128
	if quick {
		streamN = 16
	}
	for _, forceBatch := range []bool{false, true} {
		name := fmt.Sprintf("StreamUpdate/n=%d", streamN)
		if forceBatch {
			name = fmt.Sprintf("StreamBatch/n=%d", streamN)
		}
		fn, err := streamSteadyState(streamN, forceBatch)
		if err != nil {
			panic(fmt.Sprintf("benchjson: stream setup: %v", err))
		}
		bs = append(bs, bench{name: name, fn: fn})
	}

	// Sparse-native solves: ring-of-cliques topologies through the held
	// Synchronizer's CSR entry point with the hierarchical backend — the
	// regime the dense pipeline cannot touch (an n x n matrix at n=10k is
	// ~800 MB). Entries share the calibrated ns/op and alloc gates with
	// everything else; compare() additionally enforces an absolute
	// bytes-per-op ceiling on the 10k entry.
	sparse := []struct {
		name    string
		cliques int
	}{{"SparseSolve/n=1k", 33}} // 33 cliques of 32 = 1056 > the m~s materialization cap
	if !quick {
		sparse = append(sparse, struct {
			name    string
			cliques int
		}{"SparseSolve/n=10k", 313}) // 10016 nodes
	}
	for _, sz := range sparse {
		rng := rand.New(rand.NewSource(7))
		g := graph.SparseRingOfCliques(rng, sz.cliques, 32, 0.01, 1)
		s := core.NewSynchronizer()
		opts := core.Options{Solver: core.SolverHierarchical}
		bs = append(bs, bench{
			name: sz.name,
			fn: func() error {
				_, err := s.SyncCSR(g, opts)
				return err
			},
		})
	}

	// The Lemma 6.1 view reduction on its own, on the input shape of
	// clockbench's trace-heavy workload. Build assembles and validates an
	// execution from its message records; Collect reduces the built
	// execution to a trace.Table.
	viewMsgs := 25000
	if quick {
		viewMsgs = 2000
	}
	b, e, err := viewReduction(16, viewMsgs)
	if err != nil {
		panic(fmt.Sprintf("benchjson: view reduction setup: %v", err))
	}
	bs = append(bs,
		bench{
			name: fmt.Sprintf("ViewReduction/Build/msgs=%dk", viewMsgs/1000),
			fn: func() error {
				_, err := b.Build()
				return err
			},
		},
		bench{
			name: fmt.Sprintf("ViewReduction/Collect/msgs=%dk", viewMsgs/1000),
			fn: func() error {
				_, err := trace.Collect(e, false)
				return err
			},
		})

	for _, id := range expIDs {
		exp, ok := experiments.ByID(id)
		if !ok {
			continue
		}
		run := exp.Run
		bs = append(bs, bench{
			name: "Experiment/" + id,
			fn: func() error {
				_, err := run(12345)
				return err
			},
		})
	}
	return bs
}

// streamSteadyState builds the converged ring-plus-slack-chord workload of
// the streaming steady-state tests and returns one update step: observe an
// estimate one ulp below the last, then ask for Corrections. By default the
// estimate is on the slack chord, where no shortest path can use it, so
// the step is served from the certified cache. With forceBatch it is on
// ring link 0->1, whose m~ls under SymmetricBounds(1, 3) is d~min-1, its
// own shortest path: the closure entry moves and the step re-solves in
// batch, on the same instance up to that ulp. The step fails if a solve
// takes the other path.
func streamSteadyState(n int, forceBatch bool) (func() error, error) {
	ring, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		return nil, err
	}
	slack, err := delay.SymmetricBounds(0, 1e6)
	if err != nil {
		return nil, err
	}
	links := make([]core.Link, 0, n+1)
	for i := 0; i < n; i++ {
		links = append(links, core.Link{P: model.ProcID(i), Q: model.ProcID((i + 1) % n), A: ring})
	}
	links = append(links, core.Link{P: 0, Q: model.ProcID(n / 2), A: slack})
	st, err := core.NewStream(n, links, core.DefaultMLSOptions(), core.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if err := st.Observe(model.ProcID(i), model.ProcID(j), 0, 2); err != nil {
			return nil, err
		}
		if err := st.Observe(model.ProcID(j), model.ProcID(i), 0, 2); err != nil {
			return nil, err
		}
	}
	if err := st.Observe(0, model.ProcID(n/2), 0, 5e5); err != nil {
		return nil, err
	}
	if err := st.Observe(model.ProcID(n/2), 0, 0, 5e5); err != nil {
		return nil, err
	}
	if _, err := st.Corrections(); err != nil {
		return nil, err
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
	}, nil
}

// viewReduction records msgs messages over the complete graph on n
// processors, one every millisecond of real time between random endpoints
// with delays in [0.01, 0.1) s, so messages overtake each other at the
// receivers. It returns the builder and the execution it builds.
func viewReduction(n, msgs int) (*model.Builder, *model.Execution, error) {
	rng := rand.New(rand.NewSource(3))
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = rng.Float64()
	}
	b := model.NewBuilder(starts)
	for k := 0; k < msgs; k++ {
		from := rng.Intn(n)
		to := (from + 1 + rng.Intn(n-1)) % n
		if _, err := b.AddMessageDelay(model.ProcID(from), model.ProcID(to), 1+float64(k)*1e-3, 0.01+0.09*rng.Float64()); err != nil {
			return nil, nil, err
		}
	}
	e, err := b.Build()
	return b, e, err
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

// calibrator times the fixed reference workload — serial dense
// Floyd-Warshall on a pinned complete 64-node instance — keeping the
// fastest round seen. The ratio of any benchmark to this number is a
// machine-independent measure of pipeline cost.
type calibrator struct {
	src, d *graph.Dense
	iters  int
	best   float64
}

func newCalibrator(quick bool) *calibrator {
	n, iters := 64, 10
	if quick {
		n, iters = 16, 5
	}
	rng := rand.New(rand.NewSource(99))
	src := graph.NewDense(n)
	for i := 0; i < n; i++ {
		row := src.Row(i)
		for j := range row {
			if i != j {
				row[j] = 0.1 + rng.Float64()
			}
		}
	}
	return &calibrator{src: src, d: graph.NewDense(n), iters: iters, best: math.Inf(1)}
}

func (c *calibrator) round() {
	start := time.Now()
	for i := 0; i < c.iters; i++ {
		c.d.CopyFrom(c.src)
		if err := graph.FloydWarshallDense(c.d, nil); err != nil {
			panic(err) // complete positive matrix: cannot happen
		}
	}
	if ns := float64(time.Since(start).Nanoseconds()) / float64(c.iters); ns < c.best {
		c.best = ns
	}
}

// measure times fn over several rounds and reports either the fastest
// round (median=false, the standard noise-robust estimator for a check)
// or the median round (median=true, a typical cost for a baseline). The
// per-round iteration count is auto-calibrated from a warmup run so every
// round takes roughly targetNs regardless of how fast fn is;
// sub-microsecond workloads then amortize timer granularity and
// scheduler jitter away.
func measure(rounds int, targetNs float64, fn func() error, median bool) (Entry, error) {
	start := time.Now()
	if err := fn(); err != nil { // warmup + duration probe
		return Entry{}, err
	}
	one := float64(time.Since(start).Nanoseconds())
	iters := 1
	if one > 0 && one < targetNs {
		iters = int(targetNs / one)
		if iters > 100000 {
			iters = 100000
		}
	}

	samples := make([]Entry, 0, rounds)
	var m0, m1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return Entry{}, err
			}
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		samples = append(samples, Entry{
			NsPerOp:     float64(el.Nanoseconds()) / float64(iters),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
		})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].NsPerOp < samples[j].NsPerOp })
	if median {
		return samples[len(samples)/2], nil
	}
	return samples[0], nil
}

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.CalibrationNs <= 0 {
		return nil, fmt.Errorf("%s: missing or invalid calibration_ns", path)
	}
	return &f, nil
}

// regression names one benchmark that exceeded the gate.
type regression struct {
	name string
	msg  string
}

// compare returns one regression per benchmark whose calibrated ns/op (or
// allocation count) regressed beyond tol relative to the baseline.
// Benchmarks present on only one side are ignored (suites may grow), as are
// allocation counts below a small absolute floor (GC bookkeeping noise).
func compare(base, cur *File, tol float64) []regression {
	var failures []regression
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			continue
		}
		// Ratios are in calibration units (~180µs of dense FW work). The
		// absolute slack only matters for microsecond-scale entries, whose
		// relative jitter on shared runners far exceeds the tolerance; a
		// real regression on them still shows up in the larger sizes.
		const absSlack = 0.01
		baseRatio := b.NsPerOp / base.CalibrationNs
		curRatio := c.NsPerOp / cur.CalibrationNs
		if curRatio > baseRatio*(1+tol)+absSlack {
			failures = append(failures, regression{name, fmt.Sprintf(
				"%s: calibrated ns/op %.3f vs baseline %.3f (+%.0f%%, tolerance %.0f%%)",
				name, curRatio, baseRatio, (curRatio/baseRatio-1)*100, tol*100)})
		}
		// Allocation counts are machine-independent; allow the same relative
		// slack plus a small absolute floor for GC/runtime bookkeeping.
		if c.AllocsPerOp > b.AllocsPerOp*(1+tol)+8 {
			failures = append(failures, regression{name, fmt.Sprintf(
				"%s: allocs/op %.1f vs baseline %.1f",
				name, c.AllocsPerOp, b.AllocsPerOp)})
		}
	}
	// The streaming acceptance criterion is absolute, not baseline-relative:
	// the steady-state update path must stay allocation-free and at least
	// 5x cheaper than a forced batch re-solve of the same instance. Both
	// entries come from the current run, so host speed cancels exactly.
	if up, ok := cur.Benchmarks["StreamUpdate/n=128"]; ok {
		if batch, ok := cur.Benchmarks["StreamBatch/n=128"]; ok && batch.NsPerOp < 5*up.NsPerOp {
			failures = append(failures, regression{"StreamUpdate/n=128", fmt.Sprintf(
				"StreamUpdate/n=128: %.0f ns/op is only %.1fx cheaper than StreamBatch/n=128 (%.0f ns/op), want >= 5x",
				up.NsPerOp, batch.NsPerOp/up.NsPerOp, batch.NsPerOp)})
		}
		if up.AllocsPerOp > 0.1 {
			failures = append(failures, regression{"StreamUpdate/n=128", fmt.Sprintf(
				"StreamUpdate/n=128: %.2f allocs/op, want 0", up.AllocsPerOp)})
		}
	}
	// The sparse-path acceptance criterion is also absolute: the 10k-node
	// hierarchical solve must stay far below the ~800 MB an n x n float64
	// matrix would cost. Steady-state reuse keeps the real figure near
	// zero; the ceiling is set at 1/8 of the dense matrix so any code path
	// that starts materializing one fails immediately on every host.
	if sp, ok := cur.Benchmarks["SparseSolve/n=10k"]; ok {
		const denseBytes = 10016.0 * 10016.0 * 8
		if sp.BytesPerOp > denseBytes/8 {
			failures = append(failures, regression{"SparseSolve/n=10k", fmt.Sprintf(
				"SparseSolve/n=10k: %.0f bytes/op, want < %.0f (n x n matrix is %.0f)",
				sp.BytesPerOp, denseBytes/8, denseBytes)})
		}
	}
	return failures
}
