package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is the
// median, so one slow set-up (a GC, a noisy neighbour) does not move it.
const setupRepeats = 5

// config selects one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured wall time; at least one input cycle always runs
	quick    bool    // tiny sizes, for smoke tests
	traceDir string  // non-empty: traced run reporting per-layer metrics
	corrupt  bool    // tests only: perturb one checked correction so its check must fail
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line of one workload run, plus the determinism
// witnesses the tests compare (not printed).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest    string             // hash of the generated inputs
	counts    map[string]float64 // per-cycle layer counts, exact per seed
	precision float64            // median Result.Precision of the untraced pass
	layers    *layerTrace        // traced runs: the per-layer accounting
}

// bench is one prepared workload: generated inputs, checked references and
// the operation the closed loop repeats. g counts ops across passes.
type bench interface {
	// digest hashes the generated inputs.
	digest() string
	// cycle is the number of ops after which the inputs repeat: ops i and
	// i+cycle of a pass run the same input. Every pass runs at least one
	// cycle, and counts cover exactly the first.
	cycle() int
	// prepare runs untimed before op g (e.g. rebuilding a stream between
	// episodes, snapshotting counters).
	prepare(g int, lt *layerTrace) error
	// op is the timed operation. lt is nil in untraced passes.
	op(g int, lt *layerTrace) error
	// check validates op g's output against the reference, untimed, and
	// returns its precision. perturb shifts one correction first, so the
	// check must fail.
	check(g int, perturb bool) (precision float64, err error)
	// counts returns the per-cycle layer counts once the first cycle ran.
	counts() map[string]float64
	close()
}

// workload names a generator of benches.
type workload struct {
	name  string
	setup func(rng *rand.Rand, quick bool) (bench, error)
}

var workloads = []workload{
	{"dense-batch", setupDenseBatch},
	{"trace-heavy", setupTraceHeavy},
	{"stream-steady", setupStreamSteady},
	{"protocol-faulty", setupProtocolFaulty},
	{"sparse-2k", setupSparse2k},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets the workload up setupRepeats times from the seed, then
// measures it: one untraced pass for the end-to-end metrics, or, with a
// trace directory, an untraced and a traced pass of half the time each
// for the per-layer metrics.
func runWorkload(cfg config) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, setupRepeats)
	var b bench
	for k := range setups {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		start := time.Now()
		b, err = w.setup(rand.New(rand.NewSource(cfg.seed)), cfg.quick)
		setups[k] = time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
	}
	defer b.close()

	res := &result{digest: b.digest()}
	m := &measurer{b: b, corrupt: cfg.corrupt}
	if cfg.traceDir == "" {
		p, err := m.pass(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		res.fill(p)
		res.counts = b.counts()
		res.precision = median(p.prec)
		all := p.metrics()
		all["setup_s"] = metric{median(setups), "s"}
		all["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics = pick(all, endToEnd)
		return res, nil
	}

	plain, err := m.pass(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	lt := newLayerTrace(w.name)
	traced, err := m.pass(cfg.seconds/2, lt)
	if err != nil {
		return nil, err
	}
	res.fill(plain)
	res.fill(traced)
	res.counts = b.counts()
	res.precision = median(plain.prec)
	res.layers = lt
	res.Metrics = lt.metrics(traced.lat, plain.lat, res.counts)
	for k, v := range pick(plain.metrics(), passInLayers) {
		res.Metrics[k] = v
	}
	if err := lt.write(cfg.traceDir); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd are the metrics an untraced run reports: what a user of the
// library sees, each steady enough across seeds to carry a regression
// bound in BENCHMARK.json.
var endToEnd = []string{"setup_s", "op_best_ms", "ops_per_s", "peak_rss_mb"}

// passInLayers are measurements of an untraced pass that traced runs
// report among the per-layer metrics, from their untraced half, because
// they cannot carry a bound. The shared host has slow spells of seconds,
// which move every quantile over the whole pass by up to a quarter from
// run to run, the median included; precision_s differs from graph to
// graph by design, and stream-steady allocates next to nothing per tick.
var passInLayers = []string{"op_p50_ms", "op_p90_ms", "op_p99_ms", "alloc_mb_per_op", "precision_s"}

// metrics are the measurements of one untraced pass.
func (p *pass) metrics() map[string]metric {
	return map[string]metric{
		"op_best_ms":      {p.bestOp() * 1e3, "ms"},
		"ops_per_s":       {p.bestRate(), "1/s"},
		"op_p50_ms":       {percentile(p.lat, 0.50) * 1e3, "ms"},
		"op_p90_ms":       {percentile(p.lat, 0.90) * 1e3, "ms"},
		"op_p99_ms":       {percentile(p.lat, 0.99) * 1e3, "ms"},
		"alloc_mb_per_op": {float64(p.allocBytes) / float64(len(p.lat)) / 1e6, "MB"},
		"precision_s":     {median(p.prec), "s"},
	}
}

// bestOp is, for each input of the cycle, its fastest op in the pass,
// averaged over the inputs. Every input runs several times, spread over
// the pass, so a slow spell of the host that covers most of a pass
// usually leaves each input a try outside it.
func (p *pass) bestOp() float64 {
	best := make([]float64, p.cycle)
	for k := range best {
		best[k] = math.Inf(1)
	}
	for i, d := range p.lat {
		best[i%p.cycle] = math.Min(best[i%p.cycle], d)
	}
	return sum(best) / float64(p.cycle)
}

// bestRate is the op rate of the fastest stretch of the pass that runs
// every input once: the least op time of cycle consecutive ops. Unlike
// bestOp it keeps what ops cost each other, such as garbage collection.
func (p *pass) bestRate() float64 {
	window := sum(p.lat[:p.cycle])
	least := window
	for i := p.cycle; i < len(p.lat); i++ {
		window += p.lat[i] - p.lat[i-p.cycle]
		least = math.Min(least, window)
	}
	return float64(p.cycle) / least
}

func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = all[n]
	}
	return out
}

// fill folds one pass's tallies into the result.
func (r *result) fill(p *pass) {
	r.Attempted += len(p.lat)
	r.Failed += p.failed
	r.Correct = r.Failed == 0
}

// pass is what one timed loop over a bench measured. Ops i and i+cycle of
// a pass run the same input.
type pass struct {
	cycle      int
	lat        []float64 // seconds per op, checks excluded
	prec       []float64 // Result.Precision per checked op
	failed     int       // ops that returned an error or failed their check
	allocBytes uint64    // heap bytes the ops allocated, bench bookkeeping excluded
}

// measurer runs passes over one bench, numbering ops across passes.
type measurer struct {
	b       bench
	next    int
	corrupt bool
}

// pass runs the closed loop — one caller, the next op only after the
// previous one and its check finished — for at least one input cycle and
// until the given wall time has elapsed.
func (m *measurer) pass(seconds float64, lt *layerTrace) (*pass, error) {
	cycle := m.b.cycle()
	p := &pass{cycle: cycle, lat: make([]float64, 0, 1<<14)}
	alloc0 := heapAllocBytes()
	var untimedAlloc uint64
	start := time.Now()
	for i := 0; i < cycle || time.Since(start).Seconds() < seconds; i++ {
		g := m.next
		m.next++
		a := heapAllocBytes()
		if err := m.b.prepare(g, lt); err != nil {
			return nil, fmt.Errorf("prepare op %d: %w", g, err)
		}
		untimedAlloc += heapAllocBytes() - a

		lt.beginOp(g)
		t0 := time.Now()
		err := m.b.op(g, lt)
		d := time.Since(t0)
		lt.endOp(d)

		a = heapAllocBytes()
		if err == nil {
			var prec float64
			if prec, err = m.b.check(g, m.corrupt && g == 0); err == nil {
				p.prec = append(p.prec, prec)
			}
		}
		untimedAlloc += heapAllocBytes() - a
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "clockbench: op %d: %v\n", g, err)
		}
		p.lat = append(p.lat, d.Seconds())
	}
	p.allocBytes = heapAllocBytes() - alloc0 - untimedAlloc
	return p, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would, on every op).
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// percentile interpolates linearly between the order statistics of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// writeFileIn writes data to dir/name, creating dir.
func writeFileIn(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
