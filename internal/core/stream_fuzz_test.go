package core

import (
	"math"
	"testing"

	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// FuzzStreamEquivalence feeds arbitrary observation tapes through a Stream
// with the internal cross-check enabled: after every solve the incremental
// result must be bit-identical to a fresh batch solve of the same
// observations (the Stream returns an error on any divergence, which the
// target escalates). The tape bytes drive topology size, link mix,
// message endpoints, clock values and solve points, so the fuzzer explores
// cached and batch paths alike.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{4, 0, 1, 10, 20, 1, 0, 30, 10, 255, 2, 3, 5, 5})
	f.Add([]byte{2, 1, 0, 200, 100, 255, 0, 1, 90, 120, 255})
	f.Add([]byte{8, 2, 7, 3, 14, 3, 7, 9, 4, 255, 255, 6, 5, 1, 2})
	f.Add([]byte{3, 0, 1, 0, 0, 1, 2, 0, 0, 2, 0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 3 {
			return
		}
		n := 2 + int(tape[0])%10
		tape = tape[1:]

		// A ring of mixed built-in assumptions keeps instances interesting
		// without making most tapes infeasible.
		links := make([]Link, 0, n)
		for i := 0; i < n-1; i++ {
			var a delay.Assumption
			switch tape[0] % 3 {
			case 0:
				a = delay.Bounds{PQ: delay.Range{LB: 0, UB: 40}, QP: delay.Range{LB: 0, UB: 40}}
			case 1:
				a = delay.RTTBias{B: 30}
			default:
				a = delay.NoBounds()
			}
			links = append(links, Link{P: model.ProcID(i), Q: model.ProcID(i + 1), A: a})
		}

		st, err := NewStream(n, links, DefaultMLSOptions(), Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		defer st.Close()
		st.SetCrossCheck(true)

		tab := trace.NewTable(n, false)
		solves := 0
		for i := 0; i+3 < len(tape) && solves < 12; i += 4 {
			if tape[i] == 255 {
				// Solve marker: compare the incremental result (already
				// cross-checked internally) against an independent batch
				// reference built from the identical table.
				res, err := st.Corrections()
				want, werr := SynchronizeSystem(n, links, tab, DefaultMLSOptions(), Options{Parallelism: 1})
				if err != nil {
					// Feasibility errors must match the batch verdict.
					if werr == nil {
						t.Fatalf("stream solve %d errored (%v) where batch succeeded", solves, err)
					}
					return
				}
				if werr != nil {
					t.Fatalf("batch reference errored (%v) where stream succeeded", werr)
				}
				if err := compareResults(res, want); err != nil {
					t.Fatalf("solve %d: stream vs batch: %v", solves, err)
				}
				solves++
				i -= 3 // consumed one byte
				continue
			}
			from := model.ProcID(int(tape[i]) % n)
			to := model.ProcID(int(tape[i+1]) % n)
			send := float64(tape[i+2]) / 8
			recv := send + float64(tape[i+3])/8
			if from == to {
				continue
			}
			if err := st.Observe(from, to, send, recv); err != nil {
				t.Fatalf("observe: %v", err)
			}
			if err := tab.Add(trace.Sample{From: from, To: to, SendClock: send, RecvClock: recv}); err != nil {
				t.Fatalf("table: %v", err)
			}
		}
		res, err := st.Corrections()
		if err != nil {
			// Feasibility errors must match the batch path's verdict.
			if _, werr := SynchronizeSystem(n, links, tab, DefaultMLSOptions(), Options{Parallelism: 1}); werr == nil {
				t.Fatalf("stream errored (%v) where batch succeeded", err)
			}
			return
		}
		if math.IsNaN(res.Precision) {
			t.Fatal("NaN precision")
		}
		want, werr := SynchronizeSystem(n, links, tab, DefaultMLSOptions(), Options{Parallelism: 1})
		if werr != nil {
			t.Fatalf("batch reference errored (%v) where stream succeeded", werr)
		}
		if err := compareResults(res, want); err != nil {
			t.Fatalf("final solve: stream vs batch: %v", err)
		}
	})
}
