package delay

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/trace"
)

// streamedAssumptions returns the built-in model mix exercised by the
// tightening tests.
func streamedAssumptions(t *testing.T) []Assumption {
	t.Helper()
	b, err := SymmetricBounds(0.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := LowerOnly(0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRTTBias(0.8)
	if err != nil {
		t.Fatal(err)
	}
	both, err := NewIntersect(b, r)
	if err != nil {
		t.Fatal(err)
	}
	return []Assumption{b, lo, NoBounds(), r, both, Flip(b), Flip(both)}
}

// TestTightenMatchesBatch streams random observations through Tighten and
// checks after every step that the online shifts are bit-identical to the
// batch MLS of the accumulated statistics — the invariant that makes
// streaming and batch synchronization agree exactly.
func TestTightenMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ai, a := range streamedAssumptions(t) {
		st := NewLinkStats()
		batch := NewLinkStats()
		for i := 0; i < 200; i++ {
			obs := Obs{Est: 0.5 + 2*rng.Float64(), ToQ: rng.Intn(2) == 0}
			dPQ, dQP := Tighten(a, obs, &st)
			if dPQ == Grew || dQP == Grew {
				t.Fatalf("assumption %d (%v): built-in model reported Grew", ai, a)
			}
			if obs.ToQ {
				batch.PQ.Add(obs.Est)
			} else {
				batch.QP.Add(obs.Est)
			}
			wantPQ, wantQP := a.MLS(batch.PQ, batch.QP)
			if math.Float64bits(st.MLSPQ) != math.Float64bits(wantPQ) ||
				math.Float64bits(st.MLSQP) != math.Float64bits(wantQP) {
				t.Fatalf("assumption %d (%v) step %d: streamed shifts (%v,%v) != batch (%v,%v)",
					ai, a, i, st.MLSPQ, st.MLSQP, wantPQ, wantQP)
			}
		}
	}
}

// TestTightenMonotone verifies the structural fact the incremental
// synchronizer relies on: for every built-in model the shifts never grow
// as observations accumulate.
func TestTightenMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ai, a := range streamedAssumptions(t) {
		st := NewLinkStats()
		prevPQ, prevQP := st.MLSPQ, st.MLSQP
		for i := 0; i < 500; i++ {
			obs := Obs{Est: 3 * rng.Float64(), ToQ: rng.Intn(2) == 0}
			dPQ, dQP := Tighten(a, obs, &st)
			if st.MLSPQ > prevPQ || st.MLSQP > prevQP {
				t.Fatalf("assumption %d (%v) step %d: shifts grew (%v,%v) -> (%v,%v)",
					ai, a, i, prevPQ, prevQP, st.MLSPQ, st.MLSQP)
			}
			if (dPQ == Shrank) != (st.MLSPQ < prevPQ) || (dQP == Shrank) != (st.MLSQP < prevQP) {
				t.Fatalf("assumption %d (%v) step %d: direction report (%d,%d) disagrees with movement",
					ai, a, i, dPQ, dQP)
			}
			prevPQ, prevQP = st.MLSPQ, st.MLSQP
		}
	}
}

// growingAssumption is a deliberately non-monotone custom model: its shift
// equals the observation count, so it grows with every message.
type growingAssumption struct{}

func (growingAssumption) MLS(pq, qp trace.DirStats) (float64, float64) {
	return float64(pq.Count + qp.Count), float64(pq.Count + qp.Count)
}
func (growingAssumption) Admits(pq, qp []float64) bool { return true }
func (growingAssumption) String() string               { return "growing" }

// nanAssumption returns NaN shifts once any traffic arrives.
type nanAssumption struct{}

func (nanAssumption) MLS(pq, qp trace.DirStats) (float64, float64) {
	if pq.Count+qp.Count > 0 {
		return math.NaN(), math.NaN()
	}
	return math.Inf(1), math.Inf(1)
}
func (nanAssumption) Admits(pq, qp []float64) bool { return true }
func (nanAssumption) String() string               { return "nan" }

// TestTightenReportsGrowth checks that non-monotone and NaN-producing
// custom assumptions are flagged as Grew, the signal that disables
// decrease-only reuse downstream.
func TestTightenReportsGrowth(t *testing.T) {
	st := NewLinkStats()
	// First observation moves +Inf -> 2 (shrinks), second moves 2 -> 3.
	if dPQ, _ := Tighten(growingAssumption{}, Obs{Est: 1, ToQ: true}, &st); dPQ != Shrank {
		t.Fatalf("first observation: dPQ = %d, want Shrank", dPQ)
	}
	if dPQ, dQP := Tighten(growingAssumption{}, Obs{Est: 1, ToQ: true}, &st); dPQ != Grew || dQP != Grew {
		t.Fatalf("second observation: reports (%d,%d), want (Grew,Grew)", dPQ, dQP)
	}

	st = NewLinkStats()
	if dPQ, dQP := Tighten(nanAssumption{}, Obs{Est: 1, ToQ: false}, &st); dPQ != Grew || dQP != Grew {
		t.Fatalf("NaN shifts report (%d,%d), want (Grew,Grew)", dPQ, dQP)
	}
}
