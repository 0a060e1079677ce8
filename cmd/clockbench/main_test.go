package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

func mustSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quickRun(t *testing.T, cfg config) *result {
	t.Helper()
	cfg.quick = true
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// assertMetrics checks that a run emitted exactly the listed metrics, each
// with its unit.
func assertMetrics(t *testing.T, workload string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestQuickSmoke runs every workload on tiny inputs, untraced and traced:
// every metric BENCHMARK.json lists is emitted with its unit, no check
// fails, and the traced run writes a loadable Chrome trace and a layer
// table.
func TestQuickSmoke(t *testing.T) {
	s := mustSpec(t)
	dir := t.TempDir()
	for _, w := range s.Workloads {
		plain := quickRun(t, config{workload: w.Name, seed: 1})
		if plain.Failed != 0 || !plain.Correct || plain.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d correct %v", w.Name, plain.Attempted, plain.Failed, plain.Correct)
		}
		assertMetrics(t, w.Name, plain.Metrics, s.EndToEnd)

		traced := quickRun(t, config{workload: w.Name, seed: 1, traceDir: dir})
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d failed", w.Name, traced.Failed)
		}
		assertMetrics(t, w.Name, traced.Metrics, s.PerLayer)
		data, err := os.ReadFile(filepath.Join(dir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < 3 {
			t.Errorf("%s: trace has %d events (%v)", w.Name, len(doc.TraceEvents), err)
		}
		if _, err := os.Stat(filepath.Join(dir, w.Name+".layers.txt")); err != nil {
			t.Error(err)
		}
	}
}

// TestChecksAreLive perturbs one correction inside each workload's check
// path: the run must count the failure.
func TestChecksAreLive(t *testing.T) {
	for _, w := range workloads {
		res := quickRun(t, config{workload: w.name, seed: 1, corrupt: true})
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a perturbed correction passed its check (failed %d of %d)", w.name, res.Failed, res.Attempted)
		}
	}
}

// TestDeterminism: the same seed generates the same inputs and repeats the
// counts exactly; another seed generates other inputs.
func TestDeterminism(t *testing.T) {
	exact := []string{"stream.cached", "stream.batch", "sim.messages_per_round", "dist.reports.excised"}
	for _, w := range workloads {
		a := quickRun(t, config{workload: w.name, seed: 7})
		b := quickRun(t, config{workload: w.name, seed: 7})
		c := quickRun(t, config{workload: w.name, seed: 8})
		if a.digest != b.digest {
			t.Errorf("%s: same seed, input digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		for _, k := range exact {
			if a.counts[k] != b.counts[k] {
				t.Errorf("%s: %s is %v then %v for the same seed", w.name, k, a.counts[k], b.counts[k])
			}
		}
		if a.precision != b.precision {
			t.Errorf("%s: precision_s %v then %v for the same seed", w.name, a.precision, b.precision)
		}
	}
	// The counts must be live, not zero everywhere.
	stream := quickRun(t, config{workload: "stream-steady", seed: 7})
	proto := quickRun(t, config{workload: "protocol-faulty", seed: 7})
	if stream.counts["stream.cached"]+stream.counts["stream.batch"] == 0 || proto.counts["sim.messages_per_round"] == 0 {
		t.Errorf("counts not collected: stream %v protocol %v", stream.counts, proto.counts)
	}
}

// TestResultLine checks the contract line of a single-workload run: the
// last line of standard output is one JSON object with exactly correct,
// attempted, failed and metrics.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "dense-batch", "-seed", "3", "-seconds", "0", "-quick"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	if code := run([]string{"-workload", "nope", "-quick"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONSchema validates BENCHMARK.json against the schema the
// benchmark is run under, and ties it to this command.
func TestBenchmarkJSONSchema(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want 6", len(keys))
	}
	s := mustSpec(t)

	if len(s.Paths) != 1 || s.Paths[0] != "cmd/clockbench" {
		t.Errorf("paths = %v", s.Paths)
	}
	if len(s.Command) < 2 || s.Command[0] != "bash" || s.Command[1] != "cmd/clockbench/bench.sh" {
		t.Errorf("command = %v", s.Command)
	}
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, clockbench measures %d by default", s.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	wantLoads := allWorkloadNames()
	if len(s.Workloads) != len(wantLoads) {
		t.Errorf("BENCHMARK.json lists %d workloads, clockbench runs %d", len(s.Workloads), len(wantLoads))
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if i < len(wantLoads) && w.Name != wantLoads[i] {
			t.Errorf("workload %d is %q, clockbench runs %q", i, w.Name, wantLoads[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	e2e := map[string]bool{}
	largest, setup := 0.0, 0.0
	for _, m := range s.EndToEnd {
		name(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s needs the largest bound (%v < %v)", setup, largest)
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("%s: unit %q better %q, bound set %v", m.Name, m.Unit, m.Better, m.Bound != nil)
		}
		// Every layer metric names the end-to-end metrics and the
		// workloads it should move (the README's layer table).
		mv, ok := layerMoves[m.Name]
		if !ok {
			t.Errorf("%s: no entry in layerMoves", m.Name)
			continue
		}
		for _, e := range mv.e2e {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range mv.workloads {
			if !seen[w] {
				t.Errorf("%s moves unknown workload %q", m.Name, w)
			}
		}
	}
	if len(layerMoves) != len(s.PerLayer) {
		t.Errorf("layerMoves has %d entries, BENCHMARK.json %d per-layer metrics", len(layerMoves), len(s.PerLayer))
	}
}

// TestBestEstimators: op_best_ms takes each input's fastest op (ops i and
// i+cycle share an input), ops_per_s the fastest cycle-long stretch.
func TestBestEstimators(t *testing.T) {
	p := &pass{cycle: 2, lat: []float64{3, 1, 2, 5, 1, 4}}
	if got := p.bestOp(); got != 1 {
		t.Errorf("bestOp = %v, want 1 (inputs' fastest: 1 and 1)", got)
	}
	if got := p.bestRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("bestRate = %v, want 2/3 (fastest stretch 1+2)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	s := &spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "lat", Unit: "ms", Better: "lower", Bound: &bound}},
	}
	files := func(vals ...float64) []*runFile {
		var fs []*runFile
		for _, v := range vals {
			fs = append(fs, &runFile{Workloads: map[string]*result{
				"w": {Metrics: map[string]metric{"lat": {v, "ms"}}},
			}})
		}
		return fs
	}
	base := files(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		head []*runFile
		base []*runFile
		want string
	}{
		{files(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), base, "better"},
		{files(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), base, "worse"},
		{files(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), base, "unchanged"},
		{files(104, 103, 105, 104, 106, 102, 104, 105, 103, 104), base, "unchanged"},
		{files(100, 100, 100, 100, 100, 100, 100, 100, 100, 100), files(50, 150, 60, 140, 70, 130, 80, 120, 100, 100), "unresolved"},
	}
	for i, c := range cases {
		rows := compareRuns(s, c.base, c.head)
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("case %d: %+v, want %s", i, rows, c.want)
		}
	}
}
