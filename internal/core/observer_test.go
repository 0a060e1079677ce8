package core

import (
	"testing"
	"time"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
)

// TestSynchronizePhaseObserver: with an observer set, every pipeline
// phase reports a non-negative duration exactly once; without one the
// result is identical.
func TestSynchronizePhaseObserver(t *testing.T) {
	const n = 8
	mls := graph.NewMatrix(n, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				mls[i][j] = 0.1 + float64((i*7+j*3)%5)*0.05
			}
		}
	}
	phases := map[string]float64{}
	calls := map[string]int{}
	observed, err := Synchronize(mls, Options{Observer: obs.PhaseFunc(func(ph string, s float64) {
		phases[ph] = s
		calls[ph]++
	})})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"estimate", "karp_amax", "corrections"} {
		if calls[ph] != 1 {
			t.Errorf("phase %q reported %d times, want 1", ph, calls[ph])
		}
		if phases[ph] < 0 {
			t.Errorf("phase %q duration %v < 0", ph, phases[ph])
		}
	}

	plain, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Precision != observed.Precision {
		t.Errorf("observer changed the result: %v vs %v", observed.Precision, plain.Precision)
	}
	for p := range plain.Corrections {
		if plain.Corrections[p] != observed.Corrections[p] {
			t.Errorf("correction p%d differs under observation", p)
		}
	}
}

// TestHierarchicalTimedSerial: an Observer forces the serial path with
// per-phase timers. A forced-hierarchical solve reports each phase once,
// the phases sum to no more than the call's wall time, and the per-cluster
// A_max checks land in karp_amax, not estimate.
func TestHierarchicalTimedSerial(t *testing.T) {
	mls, _ := hierInstance(t, 71, 6, 20) // n = 120
	phases := map[string]float64{}
	calls := map[string]int{}
	start := time.Now()
	_, err := Synchronize(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 20,
		Observer: obs.PhaseFunc(func(ph string, s float64) {
			phases[ph] = s
			calls[ph]++
		}),
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, ph := range []string{"estimate", "karp_amax", "corrections"} {
		if calls[ph] != 1 {
			t.Errorf("phase %q reported %d times, want 1", ph, calls[ph])
		}
		if phases[ph] < 0 {
			t.Errorf("phase %q duration %v < 0", ph, phases[ph])
		}
		sum += phases[ph]
	}
	if sum > wall {
		t.Errorf("phases sum to %v s, more than the call's %v s", sum, wall)
	}
	if phases["karp_amax"] <= 0 {
		t.Errorf("karp_amax = %v, want > 0", phases["karp_amax"])
	}
}

// TestRootOutOfRangeReportsNoPhase: every solver rejects an out-of-range
// Root before any solve work, so the observer sees no phase at all.
func TestRootOutOfRangeReportsNoPhase(t *testing.T) {
	const n = 8
	mls := graph.NewMatrix(n, 0.5)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for _, solver := range []Solver{SolverDense, SolverSparse, SolverHierarchical} {
		for _, root := range []int{-1, n} {
			var seen []string
			_, err := Synchronize(mls, Options{
				Root:   root,
				Solver: solver,
				Observer: obs.PhaseFunc(func(ph string, _ float64) {
					seen = append(seen, ph)
				}),
			})
			if err == nil {
				t.Errorf("solver %v root %d: no error", solver, root)
			}
			if len(seen) != 0 {
				t.Errorf("solver %v root %d: reported phases %v before rejecting the root", solver, root, seen)
			}
		}
	}
}
