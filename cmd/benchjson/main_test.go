package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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

// TestQuickSuiteRoundTrip runs the tiny suite for real, writes the JSON,
// and checks a run against itself — the self-comparison must always pass.
func TestQuickSuiteRoundTrip(t *testing.T) {
	f, err := runSuite(true, true)
	if err != nil {
		t.Fatalf("runSuite: %v", err)
	}
	if f.CalibrationNs <= 0 {
		t.Fatalf("calibration_ns = %v, want > 0", f.CalibrationNs)
	}
	for _, name := range []string{"Synchronize/n=8", "Synchronize/n=16", "SynchronizerReuse/n=16",
		"SparseSystem/n=256", "ViewReduction/Build/msgs=2k", "ViewReduction/Collect/msgs=2k", "Experiment/T1"} {
		e, ok := f.Benchmarks[name]
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
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
	f, err := runSuite(true, false)
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
