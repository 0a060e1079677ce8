package sim

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"clocksync/internal/model"
)

// queued is the reference model of one queued event.
type queued struct {
	at  float64
	seq int64
}

// refBefore orders the reference by (time, seq); -0 and +0 are equal
// times, so they fall to seq.
func refBefore(a, b queued) int {
	if a.at != b.at { //clocklint:allow floateq exact ties must fall to seq
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// queueStep is the time of the next push relative to the last popped
// time, chosen by one fuzz byte: exact ties, -0, +Inf, one ulp, tiny and
// large gaps. Every choice keeps the push monotone.
func queueStep(last float64, c byte) float64 {
	switch c % 10 {
	case 0, 1:
		return last // exact tie
	case 2:
		if last == 0 { //clocklint:allow floateq -0 is only a tie with 0
			return math.Copysign(0, -1)
		}
		return last
	case 3:
		return math.Inf(1)
	case 4:
		return math.Nextafter(last, math.Inf(1))
	case 5:
		return last + 1e-300
	case 6:
		return last + 1e9
	default:
		return last + float64(c/10)*0.125 // few distinct values: ties across pushes
	}
}

// FuzzEventQueue drives the radix queue with monotone push/pop sequences
// and checks every pop against a list kept sorted by (time, seq): the event, its time
// bit for bit, and the queue size. A byte with the top bit set pops (when
// anything is queued); any other pushes at queueStep of the last popped
// time. Runs start either at 0 or at a negative time, and the scratch is
// released and reused between two passes over the input.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 1, 7, 17, 27, 128, 0, 128, 128, 128, 128})
	f.Add([]byte{2, 2, 0, 128, 2, 128, 128, 3, 3, 128, 0, 128, 128})
	f.Add([]byte{97, 37, 17, 128, 97, 97, 47, 128, 128, 4, 5, 128, 128, 128, 128})
	f.Add([]byte{7, 17, 27, 37, 47, 57, 67, 77, 87, 97, 128, 7, 17, 128, 128, 0, 0, 128, 128, 128, 128, 128, 128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		s := scratchPool.Get().(*scratch)
		for pass, start := range []float64{0, -3.5} {
			var ref []queued
			var seq int64
			last := start
			for i, c := range ops {
				if c&0x80 != 0 && len(ref) > 0 {
					ev, payload := s.pop()
					want := ref[0]
					ref = ref[1:]
					if ev.seq != want.seq || math.Float64bits(ev.at) != math.Float64bits(want.at) || payload != any(want.seq) {
						t.Fatalf("pass %d op %d: popped (%v, seq %d, payload %v), want (%v, seq %d)",
							pass, i, ev.at, ev.seq, payload, want.at, want.seq)
					}
					last = ev.at
					continue
				}
				at := queueStep(last, c&0x7f)
				if err := s.push(at, seq, &event{payload: seq}); err != nil {
					t.Fatalf("pass %d op %d: monotone push at %v (last %v) refused: %v", pass, i, at, last, err)
				}
				q := queued{at, seq}
				i, _ := slices.BinarySearchFunc(ref, q, refBefore)
				ref = slices.Insert(ref, i, q)
				seq++
				if s.size != len(ref) {
					t.Fatalf("pass %d op %d: size %d, want %d", pass, i, s.size, len(ref))
				}
			}
			for _, want := range ref {
				if ev, _ := s.pop(); ev.seq != want.seq {
					t.Fatalf("pass %d drain: popped seq %d, want %d", pass, ev.seq, want.seq)
				}
			}
			if s.size != 0 {
				t.Fatalf("pass %d: size %d after draining", pass, s.size)
			}
			s.release()
			s = scratchPool.Get().(*scratch)
		}
		s.release()
	})
}

// TestQueueRefusesPast: a push below the last popped time is refused
// with an error and leaves the queue as it was.
func TestQueueRefusesPast(t *testing.T) {
	s := new(scratch)
	for seq, at := range []float64{2, 5} {
		if err := s.push(at, int64(seq), &event{}); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := s.pop(); ev.at != 2 { //clocklint:allow floateq exact time
		t.Fatalf("popped %v, want 2", ev.at)
	}
	for _, at := range []float64{1.999, -1, math.Inf(-1)} {
		if err := s.push(at, 9, &event{}); err == nil || !strings.Contains(err.Error(), "internal error") {
			t.Errorf("push at %v after popping 2: err %v, want an internal error", at, err)
		}
	}
	if s.size != 1 {
		t.Fatalf("size %d after refused pushes, want 1", s.size)
	}
	if ev, _ := s.pop(); ev.at != 5 || ev.seq != 1 { //clocklint:allow floateq exact time
		t.Errorf("popped (%v, seq %d), want (5, seq 1)", ev.at, ev.seq)
	}
	// Equal to the last popped time is not the past.
	if err := s.push(5, 10, &event{}); err != nil {
		t.Errorf("push at the last popped time refused: %v", err)
	}
}

// TestQueueRefillSortsTies: equal times that reach the ready bucket from
// different buckets, so out of seq order, still pop in seq order.
func TestQueueRefillSortsTies(t *testing.T) {
	s := new(scratch)
	push := func(at float64, seq int64) {
		t.Helper()
		if err := s.push(at, seq, &event{}); err != nil {
			t.Fatal(err)
		}
	}
	push(1, 0)
	push(8, 1) // far from last = 0: a high bucket
	if ev, _ := s.pop(); ev.seq != 0 {
		t.Fatalf("popped seq %d, want 0", ev.seq)
	}
	push(8, 2) // against last = 1: another bucket than seq 1
	push(7.5, 3)
	push(8, 4)
	for _, want := range []int64{3, 1, 2, 4} {
		if ev, _ := s.pop(); ev.seq != want {
			t.Fatalf("popped seq %d, want %d", ev.seq, want)
		}
	}
}

// TestRunTieDigest pins a tie-heavy run bit for bit: constant delays on a
// complete graph with equal starts make many events share a time, so the
// order comes down to the seq tie-break; loss draws, logged and control
// sends and recorded timers are all in play. The digest covers every
// delivery and every step of the execution. It was generated by the
// engine with the binary heap, before the radix queue.
func TestRunTieDigest(t *testing.T) {
	const want = "e5774ac9fab9aa910956748876e9e4da81c7056c35e48be416e249b34ec940be"
	const n, k = 8, 6
	starts := []float64{0, 0, 0, 0, 0.25, 0.25, 0.5, 0.5}
	net, err := NewNetwork(starts, Complete(n), func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.05})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	var got []receipt
	e, err := Run(net, func(p model.ProcID) Protocol {
		return &mixProto{k: k, warmup: SafeWarmup(starts), control: func(v int) bool { return v%2 == 1 }, got: &got}
	}, RunConfig{Seed: 21, RecordTimers: true, Faults: &Faults{Loss: 0.2}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	put(uint64(len(got)))
	for _, r := range got {
		put(math.Float64bits(r.clock))
		put(uint64(r.to))
		put(uint64(r.from))
		put(uint64(r.payload))
	}
	for _, hist := range e.Histories {
		put(uint64(len(hist.Steps)))
		for _, st := range hist.Steps {
			put(math.Float64bits(st.Clock))
			put(uint64(st.Event.Kind))
			put(uint64(st.Event.Peer))
			put(uint64(st.Event.Msg))
			put(math.Float64bits(st.Event.At))
		}
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != want {
		t.Errorf("tie-heavy run digest = %s, want %s (%d deliveries)", sum, want, len(got))
	}
}

// TestSendOffLinkAborts: a send over a missing link aborts the run even
// when an injected fault would have dropped the message first.
func TestSendOffLinkAborts(t *testing.T) {
	net, err := NewNetwork([]float64{0, 0, 0}, Line(3), func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.1})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for name, faults := range map[string]*Faults{
		"no faults": nil,
		"loss":      {Loss: 0.99},
		"partition": {Partitions: []Partition{{P: 0, Q: 2, From: 0, Until: math.Inf(1)}}},
	} {
		for _, logged := range []bool{true, false} {
			_, err := Run(net, func(p model.ProcID) Protocol { return &offLink{logged: logged} }, RunConfig{Seed: 1, Faults: faults})
			if err == nil || !strings.Contains(err.Error(), "no link") {
				t.Errorf("%s, logged %v: p0->p2 on a line: err %v, want no link", name, logged, err)
			}
		}
	}
}

// offLink has p0 send to p2 at its start.
type offLink struct{ logged bool }

func (o *offLink) OnStart(env *Env) {
	if env.Self() != 0 {
		return
	}
	if o.logged {
		_ = env.Send(2, 0)
	} else {
		_ = env.SendControl(2, 0)
	}
}
func (*offLink) OnReceive(*Env, model.ProcID, any) {}
func (*offLink) OnTimer(*Env, int)                 {}
