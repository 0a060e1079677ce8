package trace

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"clocksync/internal/model"
)

// TestCollectMatchesMessagesInIDOrder is the differential test of the
// one-walk reduction: on random executions with overtaking messages,
// unreceived sends and shifted copies, Collect and CollectActual equal a
// table built by Adding Messages() in ID order. Statistics must be
// bit-identical; raw delays equal per pair as multisets, since the walk
// visits messages in receiver order.
func TestCollectMatchesMessagesInIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		starts := make([]float64, n)
		for p := range starts {
			starts[p] = 10 * rng.Float64()
		}
		b := model.NewBuilder(starts)
		sendReal, d := 10.0, 1.0
		for k := rng.Intn(300); k > 0; k-- {
			from := rng.Intn(n)
			to := (from + 1 + rng.Intn(n-1)) % n
			if rng.Intn(8) > 0 { // else repeat the last send time and delay: ties
				sendReal, d = 10+5*rng.Float64(), 2*rng.Float64()
			}
			if _, err := b.AddMessageDelay(model.ProcID(from), model.ProcID(to), sendReal, d); err != nil {
				t.Fatal(err)
			}
		}
		e, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for u := rng.Intn(4); u > 0; u-- { // in flight at the end of the run
			h := e.Histories[rng.Intn(n)]
			h.Steps = append(h.Steps, model.Step{
				Clock: h.Steps[len(h.Steps)-1].Clock + rng.Float64(),
				Event: model.Event{Kind: model.KindSend, Peer: (h.Proc + 1) % model.ProcID(n), Msg: model.MsgID(1e9 + u)},
			})
		}
		shifts := make([]float64, n)
		for p := range shifts {
			shifts[p] = 4*rng.Float64() - 2
		}
		shifted, err := e.Shift(shifts)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*model.Execution{e, shifted} {
			msgs, err := x.Messages()
			if err != nil {
				t.Fatal(err)
			}
			est, act := NewTable(n, true), NewTable(n, true)
			for _, m := range msgs {
				if err := est.Add(Sample{From: m.From, To: m.To, SendClock: m.SendClock, RecvClock: m.RecvClock}); err != nil {
					t.Fatal(err)
				}
				if err := act.Add(Sample{From: m.From, To: m.To, RecvClock: m.Delay(x)}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Collect(x, true)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, "Collect", got, est)
			if got, err = CollectActual(x, true); err != nil {
				t.Fatal(err)
			}
			sameTable(t, "CollectActual", got, act)
		}
	}
}

func sameTable(t *testing.T, name string, got, want *Table) {
	t.Helper()
	bits := func(s DirStats) [3]uint64 {
		return [3]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max)}
	}
	for p := 0; p < want.N(); p++ {
		for q := 0; q < want.N(); q++ {
			from, to := model.ProcID(p), model.ProcID(q)
			if g, w := got.Stats(from, to), want.Stats(from, to); bits(g) != bits(w) {
				t.Fatalf("%s: stats(%d,%d) = %v, want %v", name, p, q, g, w)
			}
			g, w := slices.Clone(got.Raw(from, to)), slices.Clone(want.Raw(from, to))
			slices.Sort(g)
			slices.Sort(w)
			if !slices.Equal(g, w) {
				t.Fatalf("%s: raw(%d,%d) = %v, want %v", name, p, q, g, w)
			}
		}
	}
}
