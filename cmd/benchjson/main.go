// Command benchjson measures the benchmark cases of internal/benchcase —
// the core SHIFTS pipeline at several sizes, the steady-state
// Synchronizer reuse path, the streaming and sparse solves, a sparse
// system solved from a trace.Table, the view reduction (model build and
// trace.Collect), one simulated round of the leader protocol, the
// recorder, an end-to-end scenario and every registered experiment — and
// emits the results as JSON (BENCH_core.json by default).
//
// With -check FILE it instead compares a fresh measurement against a
// committed baseline and exits non-zero when any benchmark's ns/op,
// allocs/op or bytes/op regressed by more than the tolerance. Raw
// nanoseconds are not compared across machines: every run also measures
// a fixed calibration workload (a scalar Floyd-Warshall loop on a pinned
// 64-node instance), and the gate compares ns/op *relative to the
// calibration* of the same run, which cancels out the speed of the host.
//
// Usage:
//
//	go run ./cmd/benchjson                   # write BENCH_core.json
//	go run ./cmd/benchjson -out FILE         # write elsewhere
//	go run ./cmd/benchjson -check FILE       # regression gate vs baseline
//
// A check runs at the baseline's recorded GOMAXPROCS, so both sides of the
// comparison are measured under the same scheduler conditions. The file
// also records the level the dense min-plus kernels ran at (go, avx2 or
// avx512); a check on a host where that differs says so above its
// REGRESSION lines and names the rows that time those kernels.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"clocksync/internal/benchcase"
	"clocksync/internal/graph"
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
	CalibrationNs float64 `json:"calibration_ns"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	// VectorKernels records the level the dense min-plus kernels ran at
	// (graph.KernelLevel). Empty in a file recorded before the field
	// existed.
	VectorKernels KernelLevel      `json:"vector_kernels,omitempty"`
	Benchmarks    map[string]Entry `json:"benchmarks"`
}

// KernelLevel is a min-plus kernel level: "go", "avx2" or "avx512". Files
// recorded before the levels existed hold a boolean, whether the AVX2
// bodies ran; it reads as "avx2" when true and "go" when false.
type KernelLevel string

func (l *KernelLevel) UnmarshalJSON(data []byte) error {
	var on bool
	if json.Unmarshal(data, &on) == nil {
		*l = "go"
		if on {
			*l = "avx2"
		}
		return nil
	}
	return json.Unmarshal(data, (*string)(l))
}

func main() {
	out := flag.String("out", "BENCH_core.json", "file to write measurements to")
	check := flag.String("check", "", "baseline file to compare against instead of writing")
	tol := flag.Float64("tol", 0.25, "allowed relative ns/op regression in -check mode")
	flag.Parse()
	if err := run(*out, *check, *tol); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(out, check string, tol float64) error {
	var base *File
	if check != "" {
		var err error
		if base, err = loadFile(check); err != nil {
			return fmt.Errorf("load baseline: %w", err)
		}
		fmt.Printf("benchjson: measuring at GOMAXPROCS=%d\n", matchProcs(base))
	}

	ops, release, err := setUp(benchcase.All())
	if err != nil {
		return err
	}
	defer release()
	f, err := runSuite(ops, base == nil)
	if err != nil {
		return err
	}

	if base != nil {
		failures := compare(base, f, tol)
		if len(failures) > 0 {
			// Before declaring a regression, re-measure just the suspects,
			// on the ops already built, with escalating round counts: on
			// shared runners a noisy round is far more likely than a real
			// slowdown, and the minimum over extra rounds converges to the
			// true cost. A genuine regression survives every retry.
			fns := map[string]func() error{}
			for _, o := range ops {
				fns[o.name] = o.run
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
				failures = compare(base, f, tol)
			}
		}
		if note := hostMismatch(base, f); note != "" {
			fmt.Fprintln(os.Stderr, note)
		}
		for _, r := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r.msg)
		}
		if len(failures) > 0 {
			return errors.New("regression gate failed")
		}
		fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline (calibration %.0f ns vs %.0f ns)\n",
			len(f.Benchmarks), tol*100, f.CalibrationNs, base.CalibrationNs)
		return nil
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), out)
	return nil
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

// hostMismatch returns a one-line note when the baseline was recorded
// at another kernel level than this run: the rows that time the dense
// kernels (benchcase.TimesDenseKernels), which it names, then time
// different code, and their failures say more about the host than about
// the change. It returns "" when the levels match or the baseline did
// not record one.
func hostMismatch(base, cur *File) string {
	if base.VectorKernels == "" || cur.VectorKernels == "" || base.VectorKernels == cur.VectorKernels {
		return ""
	}
	var rows []string
	for name := range base.Benchmarks {
		if benchcase.TimesDenseKernels(name) {
			rows = append(rows, name)
		}
	}
	sort.Strings(rows)
	return fmt.Sprintf("benchjson: the baseline was recorded with the %s min-plus kernels and this host runs %s; "+
		"failures on the rows that time them may be a host mismatch, not a regression: %s",
		base.VectorKernels, cur.VectorKernels, strings.Join(rows, ", "))
}

// op is one built case, ready to measure.
type op struct {
	name string
	run  func() error
}

// setUp builds every case, in list order, before the first is measured,
// so each case is measured with every setup live. It returns the ops and
// one release for all of them.
func setUp(cases []benchcase.Case) ([]op, func(), error) {
	ops := make([]op, 0, len(cases))
	var releases []func()
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
	}
	for _, c := range cases {
		run, release, err := c.Setup()
		if err != nil {
			releaseAll()
			return nil, nil, fmt.Errorf("%s: setup: %w", c.Name, err)
		}
		ops = append(ops, op{c.Name, run})
		releases = append(releases, release)
	}
	return ops, releaseAll, nil
}

// runSuite measures every op and the calibration workload. The
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
func runSuite(ops []op, baseline bool) (*File, error) {
	f := &File{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		VectorKernels: KernelLevel(graph.KernelLevel()),
		Benchmarks:    map[string]Entry{},
	}
	cal := newCalibrator()
	cal.round()

	for _, o := range ops {
		cal.round()
		e, err := measure(5, 30e6, o.run, baseline)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		f.Benchmarks[o.name] = e
	}
	cal.round()
	f.CalibrationNs = cal.best
	return f, nil
}

// calibrator times the fixed reference workload — a serial, scalar
// Floyd-Warshall triple loop on a pinned complete 64-node instance —
// keeping the fastest round seen. The ratio of any benchmark to this
// number is a machine-independent measure of pipeline cost. The loop is
// its own copy, not graph.FloydWarshallDense: the yardstick must not move
// when the kernels it measures against get faster (the graph package
// picks AVX2 bodies on CPUs that have them), and this loop is the one
// every recorded calibration_ns timed.
type calibrator struct {
	src, d *graph.Dense
	iters  int
	best   float64
}

func newCalibrator() *calibrator {
	const n, iters = 64, 10
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
		scalarFloydWarshall(c.d)
	}
	if ns := float64(time.Since(start).Nanoseconds()) / float64(c.iters); ns < c.best {
		c.best = ns
	}
}

// scalarFloydWarshall closes d in place with the branchless scalar loop.
func scalarFloydWarshall(d *graph.Dense) {
	n := d.N()
	for k := 0; k < n; k++ {
		dk := d.Row(k)
		for i := 0; i < n; i++ {
			di := d.Row(i)
			dik := di[k]
			if i == k || math.IsInf(dik, 1) {
				continue
			}
			for j, dkj := range dk {
				di[j] = min(di[j], dik+dkj)
			}
		}
	}
}

// minOps is the fewest ops the rounds of one measurement cover. A case
// slower than the round target runs one op per round, and the best of a
// handful of single ops is at the mercy of host load; such cases get
// more rounds instead.
const minOps = 15

// roundsFor returns the round count that covers at least minOps ops at
// iters ops per round.
func roundsFor(rounds, iters int) int {
	return max(rounds, (minOps+iters-1)/iters)
}

// measure times fn over several rounds and reports either the fastest
// round (median=false, the standard noise-robust estimator for a check)
// or the median round (median=true, a typical cost for a baseline). The
// per-round iteration count is auto-calibrated from a warmup run so every
// round takes roughly targetNs regardless of how fast fn is;
// sub-microsecond workloads then amortize timer granularity and
// scheduler jitter away. Slow cases get at least minOps ops in all
// (roundsFor).
func measure(rounds int, targetNs float64, fn func() error, median bool) (Entry, error) {
	// Two warmup ops: a double-buffered result (core.Synchronizer) grows
	// its second buffer on the second call, which would otherwise land in
	// the first measured round. The second also probes the duration.
	if err := fn(); err != nil {
		return Entry{}, err
	}
	start := time.Now()
	if err := fn(); err != nil {
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

	rounds = roundsFor(rounds, iters)
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

// bytesFloor is the absolute bytes/op slack of the gate, on top of the
// relative tolerance: a few small runtime and pool refills that land in
// one measured round, not a change in what an op allocates.
const bytesFloor = 4096

// compare returns one regression per benchmark whose calibrated ns/op,
// allocation count or allocated bytes regressed beyond tol relative to
// the baseline. Benchmarks present on only one side are ignored (suites
// may grow), as are allocation counts and bytes below a small absolute
// floor (GC bookkeeping noise).
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
		// Ratios are in calibration units (~180µs of scalar FW work). The
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
		// Allocation counts and bytes are machine-independent; allow the
		// same relative slack plus a small absolute floor for GC/runtime
		// bookkeeping.
		if c.AllocsPerOp > b.AllocsPerOp*(1+tol)+8 {
			failures = append(failures, regression{name, fmt.Sprintf(
				"%s: allocs/op %.1f vs baseline %.1f",
				name, c.AllocsPerOp, b.AllocsPerOp)})
		}
		if c.BytesPerOp > b.BytesPerOp*(1+tol)+bytesFloor {
			failures = append(failures, regression{name, fmt.Sprintf(
				"%s: bytes/op %.0f vs baseline %.0f",
				name, c.BytesPerOp, b.BytesPerOp)})
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
	// solves, from a CSR and from links and a trace table, must stay far
	// below the ~800 MB an n x n float64 matrix would cost (the table's old
	// n x n int32 index was half that). Steady-state reuse keeps the real
	// figures near a cloned Result; the ceiling is set at 1/8 of the dense
	// matrix so any code path that starts materializing either fails
	// immediately on every host, with or without a baseline row.
	const denseBytes = 10016.0 * 10016.0 * 8
	for _, name := range []string{"SparseSolve/n=10k", "SparseSystem/n=10k"} {
		if sp, ok := cur.Benchmarks[name]; ok && sp.BytesPerOp > denseBytes/8 {
			failures = append(failures, regression{name, fmt.Sprintf(
				"%s: %.0f bytes/op, want < %.0f (n x n matrix is %.0f)",
				name, sp.BytesPerOp, denseBytes/8, denseBytes)})
		}
	}
	return failures
}
