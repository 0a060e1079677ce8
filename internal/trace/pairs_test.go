package trace

import (
	"math"
	"testing"

	"clocksync/internal/model"
)

func TestCanon(t *testing.T) {
	if Canon(3, 1) != (LinkKey{P: 1, Q: 3}) {
		t.Errorf("Canon(3,1) = %v", Canon(3, 1))
	}
	if Canon(1, 3) != (LinkKey{P: 1, Q: 3}) {
		t.Errorf("Canon(1,3) = %v", Canon(1, 3))
	}
}

func buildPairExec(t *testing.T) *model.Execution {
	t.Helper()
	b := model.NewBuilder([]float64{0, 2})
	// Exchange 1: p0 sends at real 5 (delay 0.1), p1 answers at real 5.2
	// (delay 0.2). Exchange 2 at real 7 with delays 0.3/0.4. Insert the
	// responses out of order to exercise the sorting.
	add := func(from, to model.ProcID, sendReal, d float64) {
		t.Helper()
		if _, err := b.AddMessageDelay(from, to, sendReal, d); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 0, 7.5, 0.4) // response 2 (recorded first)
	add(0, 1, 5, 0.1)   // request 1
	add(1, 0, 5.2, 0.2) // response 1
	add(0, 1, 7, 0.3)   // request 2
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCollectPairsOrdersBySendClock(t *testing.T) {
	e := buildPairExec(t)
	pairs, err := CollectPairs(e)
	if err != nil {
		t.Fatalf("CollectPairs: %v", err)
	}
	got := pairs[Canon(0, 1)]
	if len(got) != 2 {
		t.Fatalf("pairs = %d, want 2", len(got))
	}
	// Estimated delays fold the skew S0-S1 = -2 for p0->p1 and +2 back.
	want := []EstPair{
		{PQ: 0.1 - 2, QP: 0.2 + 2},
		{PQ: 0.3 - 2, QP: 0.4 + 2},
	}
	for i := range want {
		if math.Abs(got[i].PQ-want[i].PQ) > 1e-12 || math.Abs(got[i].QP-want[i].QP) > 1e-12 {
			t.Errorf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCollectActualPairs(t *testing.T) {
	e := buildPairExec(t)
	pairs, err := CollectActualPairs(e)
	if err != nil {
		t.Fatalf("CollectActualPairs: %v", err)
	}
	got := pairs[Canon(0, 1)]
	want := []EstPair{{PQ: 0.1, QP: 0.2}, {PQ: 0.3, QP: 0.4}}
	for i := range want {
		if math.Abs(got[i].PQ-want[i].PQ) > 1e-12 || math.Abs(got[i].QP-want[i].QP) > 1e-12 {
			t.Errorf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCollectPairsUnmatchedDropped(t *testing.T) {
	b := model.NewBuilder([]float64{0, 0})
	if _, err := b.AddMessageDelay(0, 1, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMessageDelay(0, 1, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMessageDelay(1, 0, 1.5, 0.2); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pairs[Canon(0, 1)]); got != 1 {
		t.Errorf("pairs = %d, want 1 (extra request dropped)", got)
	}
}

// TestCollectPairsTiedSendClocks: two P->Q messages sent at the same clock
// rank by ID, whatever order they arrive in.
func TestCollectPairsTiedSendClocks(t *testing.T) {
	b := model.NewBuilder([]float64{0, 0})
	add := func(from, to model.ProcID, send, recv float64) {
		t.Helper()
		if _, err := b.AddMessage(from, to, send, recv); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, 1, 1.5) // lower ID, received second
	add(0, 1, 1, 1.25)
	add(1, 0, 2, 2.125)
	add(1, 0, 3, 3.375)
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(e)
	if err != nil {
		t.Fatal(err)
	}
	want := []EstPair{{PQ: 0.5, QP: 0.125}, {PQ: 0.25, QP: 0.375}}
	if got := pairs[Canon(0, 1)]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}
