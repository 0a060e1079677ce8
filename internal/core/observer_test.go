package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"clocksync/internal/delay"
	"clocksync/internal/graph"
	"clocksync/internal/model"
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

// TestRootOutOfRangeReportsNoPhase: every entry point and every solver
// rejects an out-of-range Root before any solve work (no view reduction,
// no CSR build), so the observer sees no phase at all; NewStream refuses
// the root outright.
func TestRootOutOfRangeReportsNoPhase(t *testing.T) {
	const n = 8
	mls := graph.NewMatrix(n, 0.5)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	a, err := delay.SymmetricBounds(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var links []Link
	var csr graph.CSR
	csr.Reset(n)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			links = append(links, Link{P: model.ProcID(p), Q: model.ProcID(q), A: a})
			csr.MustAddEdge(p, q, 0.5)
			csr.MustAddEdge(q, p, 0.5)
		}
	}
	s := NewSynchronizer()
	defer s.Close()
	entries := []struct {
		name  string
		solve func(Options) error
	}{
		{"Synchronize", func(o Options) error {
			_, err := Synchronize(mls, o)
			return err
		}},
		{"SynchronizeSystem", func(o Options) error {
			_, err := SynchronizeSystem(n, links, nil, DefaultMLSOptions(), o)
			return err
		}},
		{"SyncCSR", func(o Options) error {
			_, err := s.SyncCSR(&csr, o)
			return err
		}},
		{"NewStream", func(o Options) error {
			st, err := NewStream(n, links, DefaultMLSOptions(), o)
			if err == nil {
				st.Close()
			}
			return err
		}},
	}
	for _, e := range entries {
		for _, solver := range []Solver{SolverDense, SolverSparse, SolverHierarchical} {
			for _, root := range []int{-1, n} {
				var seen []string
				err := e.solve(Options{
					Root:   root,
					Solver: solver,
					Observer: obs.PhaseFunc(func(ph string, _ float64) {
						seen = append(seen, ph)
					}),
				})
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s solver %v root %d: err = %v, want out of range", e.name, solver, root, err)
				}
				if len(seen) != 0 {
					t.Errorf("%s solver %v root %d: reported phases %v before rejecting the root", e.name, solver, root, seen)
				}
			}
		}
	}
}

// TestStreamCrossCheckUnobserved: the cross-check re-solve behind a
// cached Corrections call is the stream's own verification, not a solve
// the caller asked for, so it reports no phase and publishes no quality.
func TestStreamCrossCheckUnobserved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	links, samples := randomStreamInstance(t, rng, 6, 60)
	var seen []string
	const label = "cross-check-unobserved"
	st, err := NewStream(6, links, DefaultMLSOptions(), Options{
		Observer:     obs.PhaseFunc(func(ph string, _ float64) { seen = append(seen, ph) }),
		Quality:      true,
		QualityLabel: label,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCrossCheck(true)
	for _, m := range samples {
		if err := st.Observe(m.from, m.to, m.send, m.recv); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Corrections(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"mls", "estimate", "karp_amax", "corrections"}; !slices.Equal(seen, want) {
		t.Fatalf("batch solve reported phases %v, want %v", seen, want)
	}
	grad := obs.Default.Histogram(obs.Labeled("quality.gradient.pair", "session", label), obs.DefTimeBuckets)
	published := grad.Snapshot().Count
	seen = seen[:0]
	if _, err := st.Corrections(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Cached != 1 {
		t.Fatalf("stats %+v: the second call was not served from the cache", st.Stats())
	}
	if len(seen) != 0 {
		t.Errorf("cross-checked cached call reported phases %v, want none", seen)
	}
	if got := grad.Snapshot().Count; got != published {
		t.Errorf("cross-checked cached call published quality: %d gradient samples, want %d", got, published)
	}
}

// TestObserverSpansTile: the phases of one Synchronize, recorded as spans
// under one trace observer, lie end to end inside the enclosing span.
// core reports several phases together after the solve, so spans that
// ended at their report instant would overlap.
func TestObserverSpansTile(t *testing.T) {
	const n = 120
	mls := graph.NewMatrix(n, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				mls[i][j] = 0.1 + float64((i*7+j*3)%5)*0.05
			}
		}
	}
	tr := obs.NewTrace("tile")
	id, end := tr.StartChild("compute", -1, 0, 0)
	if _, err := Synchronize(mls, Options{Observer: tr.ObserverChild(-1, 0, id)}); err != nil {
		t.Fatal(err)
	}
	end()
	var parent obs.Span
	var phases []obs.Span
	for _, s := range tr.Spans() {
		switch {
		case s.ID == id:
			parent = s
		case s.Parent == id:
			phases = append(phases, s)
		}
	}
	if len(phases) != 3 {
		t.Fatalf("recorded %d phase spans, want 3: %+v", len(phases), phases)
	}
	const eps = 1e-9
	for i, s := range phases {
		if s.Start < parent.Start-eps || s.Start+s.Seconds > parent.Start+parent.Seconds+eps {
			t.Errorf("%s span [%v, %v] outside its parent [%v, %v]", s.Phase,
				s.Start, s.Start+s.Seconds, parent.Start, parent.Start+parent.Seconds)
		}
		if i == 0 {
			continue
		}
		if prev := phases[i-1]; s.Start < prev.Start+prev.Seconds-eps {
			t.Errorf("%s span starts at %v, inside %s [%v, %v]", s.Phase, s.Start,
				prev.Phase, prev.Start, prev.Start+prev.Seconds)
		}
	}
}
