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
// target escalates). The tape bytes drive topology size, AssumeNonnegative,
// each link's assumption and orientation, a second link on a pair,
// message endpoints, clock values and solve points, so the fuzzer explores
// cached and batch paths alike.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0, 0, 0, 0, 1, 10, 20, 1, 0, 30, 10, 255, 2, 3, 5, 5})
	f.Add([]byte{2, 1, 2, 2, 2, 1, 0, 200, 100, 255, 0, 1, 90, 120, 255})
	f.Add([]byte{8, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 7, 3, 14, 3, 7, 9, 4, 255, 255, 6, 5, 1, 2})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 0, 0, 0, 255})
	f.Add([]byte{1, 1, 1, 1, 0, 1, 8, 40, 1, 0, 8, 20, 255, 1, 2, 8, 30, 2, 1, 8, 20, 255, 0, 1, 8, 30, 255})       // asymmetric Bounds
	f.Add([]byte{1, 1, 5, 6, 0, 1, 8, 40, 1, 0, 8, 20, 255, 1, 2, 8, 30, 2, 1, 8, 20, 255, 0, 1, 8, 30, 255})       // reverse-oriented links
	f.Add([]byte{1, 1, 0x19, 0x1e, 0, 1, 8, 40, 1, 0, 8, 20, 255, 1, 2, 8, 30, 2, 1, 8, 20, 255, 0, 1, 8, 30, 255}) // second links in the opposite orientation
	f.Add([]byte{1, 0, 0, 3, 0, 1, 8, 20, 1, 0, 8, 20, 0, 2, 8, 10, 2, 0, 8, 30, 255, 1, 2, 8, 9, 255})             // AssumeNonnegative off, traffic on the unlinked pair p0-p2
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 3 {
			return
		}
		n := 2 + int(tape[0])%10
		mopts := MLSOptions{AssumeNonnegative: tape[1]&1 == 1}
		tape = tape[2:]

		// A ring of mixed built-in assumptions keeps instances interesting
		// without making most tapes infeasible. One byte per ring link:
		// bits 0-1 pick its assumption, bit 2 reverses its orientation,
		// bit 3 adds a second link on the pair in the opposite orientation,
		// with the assumption bits 4-5 pick.
		kind := func(k byte) delay.Assumption {
			switch k % 4 {
			case 0:
				return delay.Bounds{PQ: delay.Range{LB: 0, UB: 40}, QP: delay.Range{LB: 0, UB: 40}}
			case 1:
				return delay.Bounds{PQ: delay.Range{LB: 1, UB: 40}, QP: delay.Range{LB: 0, UB: 25}}
			case 2:
				return delay.RTTBias{B: 30}
			default:
				return delay.NoBounds()
			}
		}
		links := make([]Link, 0, n)
		for i := 0; i < n-1 && len(tape) > 0; i++ {
			b := tape[0]
			tape = tape[1:]
			p, q := model.ProcID(i), model.ProcID(i+1)
			if b&4 != 0 {
				p, q = q, p
			}
			links = append(links, Link{P: p, Q: q, A: kind(b)})
			if b&8 != 0 {
				links = append(links, Link{P: q, Q: p, A: kind(b >> 4)})
			}
		}

		st, err := NewStream(n, links, mopts, Options{Parallelism: 1})
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
				want, werr := SynchronizeSystem(n, links, tab, mopts, Options{Parallelism: 1})
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
			if _, werr := SynchronizeSystem(n, links, tab, mopts, Options{Parallelism: 1}); werr == nil {
				t.Fatalf("stream errored (%v) where batch succeeded", err)
			}
			return
		}
		if math.IsNaN(res.Precision) {
			t.Fatal("NaN precision")
		}
		want, werr := SynchronizeSystem(n, links, tab, mopts, Options{Parallelism: 1})
		if werr != nil {
			t.Fatalf("batch reference errored (%v) where stream succeeded", werr)
		}
		if err := compareResults(res, want); err != nil {
			t.Fatalf("final solve: stream vs batch: %v", err)
		}
	})
}
