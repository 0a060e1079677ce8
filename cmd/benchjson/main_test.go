package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"clocksync/internal/benchcase"
)

func TestCompare(t *testing.T) {
	base := &File{
		CalibrationNs: 1000,
		Benchmarks: map[string]Entry{
			"Synchronize/n=8": {NsPerOp: 5000, AllocsPerOp: 8},
			"Experiment/T1":   {NsPerOp: 2e6, AllocsPerOp: 100},
		},
	}

	// A twice-as-fast machine with identical calibrated ratios passes.
	ok := &File{
		CalibrationNs: 500,
		Benchmarks: map[string]Entry{
			"Synchronize/n=8": {NsPerOp: 2500, AllocsPerOp: 8},
			"Experiment/T1":   {NsPerOp: 1e6, AllocsPerOp: 100},
		},
	}
	if fails := compare(base, ok, 0.25); len(fails) != 0 {
		t.Errorf("scaled run flagged: %v", fails)
	}

	// A 50% calibrated slowdown on one benchmark fails with a named message.
	slow := &File{
		CalibrationNs: 1000,
		Benchmarks: map[string]Entry{
			"Synchronize/n=8": {NsPerOp: 7500, AllocsPerOp: 8},
			"Experiment/T1":   {NsPerOp: 2e6, AllocsPerOp: 100},
		},
	}
	fails := compare(base, slow, 0.25)
	if len(fails) != 1 || fails[0].name != "Synchronize/n=8" {
		t.Errorf("50%% regression: got %v, want one Synchronize/n=8 failure", fails)
	}

	// An allocation explosion fails even when ns/op is fine.
	leaky := &File{
		CalibrationNs: 1000,
		Benchmarks: map[string]Entry{
			"Synchronize/n=8": {NsPerOp: 5000, AllocsPerOp: 500},
			"Experiment/T1":   {NsPerOp: 2e6, AllocsPerOp: 100},
		},
	}
	fails = compare(base, leaky, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0].msg, "allocs/op") {
		t.Errorf("alloc regression: got %v, want one allocs/op failure", fails)
	}

	// So does a bytes/op explosion at the same allocation count, but not
	// a few bytes over a zero baseline.
	bloated := &File{
		CalibrationNs: 1000,
		Benchmarks: map[string]Entry{
			"Synchronize/n=8": {NsPerOp: 5000, AllocsPerOp: 8, BytesPerOp: bytesFloor + 1},
			"Experiment/T1":   {NsPerOp: 2e6, AllocsPerOp: 100, BytesPerOp: bytesFloor},
		},
	}
	fails = compare(base, bloated, 0.25)
	if len(fails) != 1 || fails[0].name != "Synchronize/n=8" || !strings.Contains(fails[0].msg, "bytes/op") {
		t.Errorf("bytes regression: got %v, want one Synchronize/n=8 bytes/op failure", fails)
	}

	// Benchmarks missing from the current run are ignored (suites may grow
	// or shrink between commits without breaking the gate).
	partial := &File{
		CalibrationNs: 1000,
		Benchmarks:    map[string]Entry{"Experiment/T1": {NsPerOp: 2e6, AllocsPerOp: 100}},
	}
	if fails := compare(base, partial, 0.25); len(fails) != 0 {
		t.Errorf("partial run flagged: %v", fails)
	}
}

// quickOps builds a named two-case subset of the list: one
// microsecond-scale case and one experiment.
func quickOps(t *testing.T) []op {
	t.Helper()
	var cases []benchcase.Case
	for _, c := range benchcase.All() {
		if c.Name == "Synchronize/n=8" || c.Name == "Experiment/T1" {
			cases = append(cases, c)
		}
	}
	if len(cases) != 2 {
		t.Fatalf("found %d of the 2 quick cases", len(cases))
	}
	ops, release, err := setUp(cases)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return ops
}

// TestQuickSuiteRoundTrip measures a two-case subset for real, writes
// the JSON, and checks a run against itself — the self-comparison must
// always pass.
func TestQuickSuiteRoundTrip(t *testing.T) {
	f, err := runSuite(quickOps(t), true)
	if err != nil {
		t.Fatalf("runSuite: %v", err)
	}
	if f.CalibrationNs <= 0 {
		t.Fatalf("calibration_ns = %v, want > 0", f.CalibrationNs)
	}
	if len(f.Benchmarks) != 2 {
		t.Errorf("got %d benchmarks, want 2", len(f.Benchmarks))
	}
	for name, e := range f.Benchmarks {
		if e.NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op = %v, want > 0", name, e.NsPerOp)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadFile(path)
	if err != nil {
		t.Fatalf("loadFile: %v", err)
	}
	if fails := compare(loaded, f, 0.25); len(fails) != 0 {
		t.Errorf("self-comparison failed: %v", fails)
	}
}

// TestMatchProcs: a check measures at the baseline's GOMAXPROCS, and the
// run records that value; a baseline without the field leaves the
// setting alone.
func TestMatchProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	if got := matchProcs(&File{GoMaxProcs: 1}); got != 1 || runtime.GOMAXPROCS(0) != 1 {
		t.Errorf("matchProcs(baseline at 1) = %d, GOMAXPROCS = %d; want 1", got, runtime.GOMAXPROCS(0))
	}
	f, err := runSuite(quickOps(t), false)
	if err != nil {
		t.Fatalf("runSuite: %v", err)
	}
	if f.GoMaxProcs != 1 {
		t.Errorf("check run recorded gomaxprocs %d, want the baseline's 1", f.GoMaxProcs)
	}
	runtime.GOMAXPROCS(3)
	if got := matchProcs(&File{}); got != 3 {
		t.Errorf("matchProcs(baseline without gomaxprocs) = %d, want 3 (unchanged)", got)
	}
}

// TestLedgerMatchesCases: every row of the committed BENCH_core.json
// names a case and every case has a row. compare ignores rows present on
// one side only, so without this a renamed or new case would silently
// stay out of the gate.
func TestLedgerMatchesCases(t *testing.T) {
	ledger, err := loadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	for _, c := range benchcase.All() {
		if cases[c.Name] {
			t.Errorf("case %s is listed twice", c.Name)
		}
		cases[c.Name] = true
		if _, ok := ledger.Benchmarks[c.Name]; !ok {
			t.Errorf("case %s has no row in BENCH_core.json", c.Name)
		}
	}
	for name := range ledger.Benchmarks {
		if !cases[name] {
			t.Errorf("BENCH_core.json row %s names no case", name)
		}
	}
}

// TestSetUpNamesFailingCase: a setup error names its case and releases
// the cases built before it.
func TestSetUpNamesFailingCase(t *testing.T) {
	released := 0
	cases := []benchcase.Case{
		{Name: "ok", Setup: func() (func() error, func(), error) {
			return func() error { return nil }, func() { released++ }, nil
		}},
		{Name: "broken", Setup: func() (func() error, func(), error) {
			return nil, nil, errors.New("no input")
		}},
	}
	_, _, err := setUp(cases)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Errorf("setUp error = %v, want one naming the broken case", err)
	}
	if released != 1 {
		t.Errorf("released %d built cases, want 1", released)
	}
}

// TestMeasureMinOps: a case slower than the round target still gets
// minOps timed ops, one per round, beside the two warmup ops.
func TestMeasureMinOps(t *testing.T) {
	calls := 0
	if _, err := measure(5, 1, func() error { calls++; return nil }, false); err != nil {
		t.Fatal(err)
	}
	if calls != 2+minOps {
		t.Errorf("measure ran %d ops, want 2 warmup + %d", calls, minOps)
	}
	for _, c := range []struct{ rounds, iters, want int }{
		{5, 1, minOps}, {5, 2, (minOps + 1) / 2}, {5, minOps, 5}, {20, 1, max(20, minOps)},
	} {
		if got := roundsFor(c.rounds, c.iters); got != c.want {
			t.Errorf("roundsFor(%d, %d) = %d, want %d", c.rounds, c.iters, got, c.want)
		}
	}
}

// TestHostMismatch: a check names a host whose kernel level differs from
// the baseline's, and the baseline rows that time the dense kernels, and
// says nothing when the levels match or the baseline recorded none.
func TestHostMismatch(t *testing.T) {
	rows := map[string]Entry{"Synchronize/n=8": {}, "Kernels/Karp/n=128": {}, "Observe": {}, "Experiment/P1": {}}
	note := hostMismatch(&File{VectorKernels: "avx2", Benchmarks: rows}, &File{VectorKernels: "avx512"})
	for _, want := range []string{"host mismatch", "avx2", "avx512", "Kernels/Karp/n=128, Synchronize/n=8"} {
		if !strings.Contains(note, want) {
			t.Errorf("avx2 vs avx512: note %q, want one naming %q", note, want)
		}
	}
	for _, row := range []string{"Observe", "Experiment/P1"} {
		if strings.Contains(note, row) {
			t.Errorf("note %q names %s, which does not time the dense kernels", note, row)
		}
	}
	for _, base := range []KernelLevel{"avx512", ""} {
		if note := hostMismatch(&File{VectorKernels: base, Benchmarks: rows}, &File{VectorKernels: "avx512"}); note != "" {
			t.Errorf("baseline %q vs avx512: note %q, want none", base, note)
		}
	}
}

// TestKernelLevelJSON: the header writes the level as a string and reads
// the boolean of older files, true as avx2 and false as go.
func TestKernelLevelJSON(t *testing.T) {
	for _, c := range []struct {
		in   string
		want KernelLevel
	}{
		{`{"vector_kernels": true}`, "avx2"},
		{`{"vector_kernels": false}`, "go"},
		{`{"vector_kernels": "avx512"}`, "avx512"},
		{`{}`, ""},
	} {
		var f File
		if err := json.Unmarshal([]byte(c.in), &f); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if f.VectorKernels != c.want {
			t.Errorf("%s: level %q, want %q", c.in, f.VectorKernels, c.want)
		}
	}
	out, err := json.Marshal(File{VectorKernels: "avx512"})
	if err != nil || !strings.Contains(string(out), `"vector_kernels":"avx512"`) {
		t.Errorf("marshal: %s, %v; want the level as a string", out, err)
	}
	if err := json.Unmarshal([]byte(`{"vector_kernels": 3}`), new(File)); err == nil {
		t.Error("a number reads as a level; want an error")
	}
}
