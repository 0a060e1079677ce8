package model_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// TestMessagesCorrespondenceErrors: each of the four correspondence faults
// is rejected by Messages with its own text, and every consumer of the
// walk returns the same error: Validate verbatim, the trace reductions
// wrapped once. With two faults in one execution the send fault wins,
// though its history comes after the receipt's: every send is recorded
// before any receipt is checked.
func TestMessagesCorrespondenceErrors(t *testing.T) {
	send := func(clock float64, peer model.ProcID) model.Step {
		return model.Step{Clock: clock, Event: model.Event{Kind: model.KindSend, Peer: peer, Msg: 7}}
	}
	recv := func(clock float64, peer model.ProcID) model.Step {
		return model.Step{Clock: clock, Event: model.Event{Kind: model.KindRecv, Peer: peer, Msg: 7}}
	}
	exec := func(n int, steps map[int][]model.Step) *model.Execution {
		e := model.NewExecution(make([]float64, n))
		for p, s := range steps {
			e.Histories[p].Steps = append(e.Histories[p].Steps, s...)
		}
		return e
	}
	faults := []struct {
		name, text string
		e          *model.Execution
	}{
		{"received but never sent", "model: message 7 received by p1 but never sent",
			exec(2, map[int][]model.Step{1: {recv(1, 0)}})},
		{"sent twice", "model: message 7 sent twice",
			exec(2, map[int][]model.Step{0: {send(1, 1), send(2, 1)}})},
		{"delivered twice", "model: message 7 delivered twice",
			exec(2, map[int][]model.Step{0: {send(1, 1)}, 1: {recv(2, 0), recv(3, 0)}})},
		{"endpoint mismatch", "model: message 7 endpoint mismatch: sent p0->p1, received by p2 from p0",
			exec(3, map[int][]model.Step{0: {send(1, 1)}, 2: {recv(2, 0)}})},
		{"sent twice before a receipt fault", "model: message 7 sent twice",
			exec(3, map[int][]model.Step{0: {recv(1, 1)}, 2: {send(1, 1), send(2, 1)}})},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			_, want := f.e.Messages()
			if want == nil || want.Error() != f.text {
				t.Fatalf("Messages: error = %v, want %s", want, f.text)
			}
			check := func(name string, err, want error) {
				t.Helper()
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s: error = %v, want %v", name, err, want)
				}
			}
			check("EachMessage", f.e.EachMessage(func(model.Message) error { return nil }), want)
			check("Validate", f.e.Validate(), want)
			wrapped := errors.New("trace: resolve messages: " + want.Error())
			_, err := trace.Collect(f.e, true)
			check("Collect", err, wrapped)
			_, err = trace.CollectActual(f.e, true)
			check("CollectActual", err, wrapped)
			_, err = trace.CollectPairs(f.e)
			check("CollectPairs", err, wrapped)
			_, err = trace.CollectActualPairs(f.e)
			check("CollectActualPairs", err, wrapped)
		})
	}
}

// TestEachMessageStopsAtFnError: an error of fn ends the walk and comes
// back unchanged.
func TestEachMessageStopsAtFnError(t *testing.T) {
	b := model.NewBuilder([]float64{0, 0})
	for k := 0; k < 3; k++ {
		if _, err := b.AddMessage(0, 1, float64(k), float64(k)+1); err != nil {
			t.Fatal(err)
		}
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	if err := e.EachMessage(func(model.Message) error { calls++; return stop }); err != stop {
		t.Errorf("EachMessage = %v, want fn's error", err)
	}
	if calls != 1 {
		t.Errorf("fn called %d times after failing, want 1", calls)
	}
}

// TestBuildTiedClocksStable: Build orders each history exactly like a
// stable sort by clock of the steps in the order they were recorded
// (timers first, then messages), so steps at one clock keep that order.
func TestBuildTiedClocksStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 3
	b := model.NewBuilder([]float64{0, 0.5, 1})
	grid := func() float64 { return float64(1 + rng.Intn(3)) } // few values: many ties
	timers := make([][]model.Step, n)
	for k := 0; k < 8; k++ {
		p, set := rng.Intn(n), grid()
		fire, fired := set+grid()-1, rng.Intn(2) == 0
		if err := b.AddTimer(model.ProcID(p), set, fire, fired); err != nil {
			t.Fatal(err)
		}
		timers[p] = append(timers[p], model.Step{Clock: set, Event: model.Event{Kind: model.KindTimerSet, At: fire}})
		if fired {
			timers[p] = append(timers[p], model.Step{Clock: fire, Event: model.Event{Kind: model.KindTimer, At: fire}})
		}
	}
	want := make([][]model.Step, n)
	for p := range want {
		want[p] = append([]model.Step{{Event: model.Event{Kind: model.KindStart}}}, timers[p]...)
	}
	for k := 0; k < 40; k++ {
		from := rng.Intn(n)
		to := (from + 1 + rng.Intn(n-1)) % n
		sc, rc := grid(), grid()
		id, err := b.AddMessage(model.ProcID(from), model.ProcID(to), sc, rc)
		if err != nil {
			t.Fatal(err)
		}
		want[from] = append(want[from], model.Step{Clock: sc, Event: model.Event{Kind: model.KindSend, Peer: model.ProcID(to), Msg: id}})
		want[to] = append(want[to], model.Step{Clock: rc, Event: model.Event{Kind: model.KindRecv, Peer: model.ProcID(from), Msg: id}})
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for p := range want {
		steps := want[p][1:]
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].Clock < steps[j].Clock })
		if !reflect.DeepEqual(e.Histories[p].Steps, want[p]) {
			t.Errorf("p%d steps:\n got %v\nwant %v", p, e.Histories[p].Steps, want[p])
		}
	}
}

// decodeExecution turns fuzz bytes into an execution: the first byte
// picks 2..5 processors and the ID mode, then every five bytes append one
// step (processor, kind, peer, message ID, clock increment) to a history.
// Peers may be the processor itself, out of range, or (byte 255) 2^32+1,
// which an int32 would truncate to p1; IDs collide often, and some steps
// break the history's well-formedness on purpose. The ID modes:
//
//   - multiples of 2^40, which EachMessage's slice never holds;
//   - (bit 2) small and nearly consecutive, -7..7, like Builder's, so the
//     slice holds most sends;
//   - (bit 3) within 7 of ⌊(S−n)/2⌋, the slice's last ID (S steps, n
//     histories), so one execution uses both the slice and the spill map,
//     and a short one also IDs 0 and below.
func decodeExecution(data []byte) *model.Execution {
	if len(data) == 0 {
		return model.NewExecution([]float64{0, 0})
	}
	n := 2 + int(data[0]%4)
	mod, shift := int8(16), 40
	if data[0]&12 != 0 {
		mod, shift = 8, 0
	}
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = float64(p) / 4
	}
	e := model.NewExecution(starts)
	kinds := []model.Kind{model.KindSend, model.KindRecv, model.KindSend, model.KindRecv, model.KindTimer, model.KindStart}
	steps := n
	for rest := data[1:]; len(rest) >= 5; rest = rest[5:] {
		h := e.Histories[int(rest[0])%n]
		clock := h.Steps[len(h.Steps)-1].Clock + float64(rest[4]%4)
		if rest[4] == 255 {
			clock -= 5 // out of order
		}
		peer := model.ProcID(int(rest[2]) % (n + 1))
		if rest[2] == 255 {
			peer = 1<<32 + 1
		}
		h.Steps = append(h.Steps, model.Step{Clock: clock, Event: model.Event{
			Kind: kinds[int(rest[1])%len(kinds)],
			Peer: peer,
			Msg:  model.MsgID(int64(int8(rest[3])%mod) << shift),
		}})
		steps++
	}
	if data[0]&8 != 0 {
		bound := model.MsgID((steps - n) / 2)
		for _, h := range e.Histories {
			for i := 1; i < len(h.Steps); i++ {
				h.Steps[i].Event.Msg += bound
			}
		}
	}
	return e
}

// naiveMessages is the O(m^2) reference correspondence: every pair of
// sends and every pair of receipts is compared directly. It returns the
// delivered messages in receiver order, or ok = false when the
// correspondence is malformed.
func naiveMessages(e *model.Execution) (msgs []model.Message, ok bool) {
	type at struct {
		p  model.ProcID
		st model.Step
	}
	var sends, recvs []at
	for _, h := range e.Histories {
		for _, st := range h.Steps {
			switch st.Event.Kind {
			case model.KindSend:
				sends = append(sends, at{h.Proc, st})
			case model.KindRecv:
				recvs = append(recvs, at{h.Proc, st})
			}
		}
	}
	for i := range sends {
		for j := 0; j < i; j++ {
			if sends[i].st.Event.Msg == sends[j].st.Event.Msg {
				return nil, false
			}
		}
	}
	for i, r := range recvs {
		for j := 0; j < i; j++ {
			if r.st.Event.Msg == recvs[j].st.Event.Msg {
				return nil, false
			}
		}
		k := 0
		for k < len(sends) && sends[k].st.Event.Msg != r.st.Event.Msg {
			k++
		}
		if k == len(sends) || sends[k].st.Event.Peer != r.p || sends[k].p != r.st.Event.Peer {
			return nil, false
		}
		msgs = append(msgs, model.Message{
			ID: r.st.Event.Msg, From: sends[k].p, To: r.p,
			SendClock: sends[k].st.Clock, RecvClock: r.st.Clock,
		})
	}
	return msgs, true
}

// FuzzMessageWalk checks EachMessage, Messages and Validate against the
// naive reference: the same accept or reject, and the same messages, in
// receiver order from the walk and in ID order from Messages.
func FuzzMessageWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 3, 1, 1, 1, 0, 3, 2})                   // p0 -> p1, delivered
	f.Add([]byte{1, 0, 0, 1, 3, 1, 1, 1, 0, 3, 2, 2, 0, 1, 9, 0})    // plus one in flight
	f.Add([]byte{2, 0, 0, 1, 3, 1, 2, 1, 0, 3, 2, 1, 1, 0, 3, 0})    // delivered twice
	f.Add([]byte{3, 0, 0, 2, 5, 0, 1, 0, 2, 5, 255, 2, 1, 0, 5, 1})  // sent twice, out of order
	f.Add([]byte{0, 1, 0, 0, 7, 2, 0, 0, 1, 7, 2, 1, 5, 0, 0, 0, 1}) // start mid-history
	// Small IDs: the slice index.
	f.Add([]byte{4, 0, 0, 1, 1, 1, 0, 0, 1, 2, 1, 1, 1, 0, 2, 1, 1, 1, 0, 1, 0}) // receipts out of ID order
	f.Add([]byte{5, 0, 0, 1, 1, 1, 0, 0, 1, 3, 1, 1, 1, 0, 2, 1})                // a gap in the range, received
	f.Add([]byte{4, 0, 0, 1, 1, 1, 0, 0, 1, 2, 1, 1, 1, 0, 253, 1})              // an ID below the range, received
	// IDs around the slice's last one, ⌊(S−n)/2⌋.
	f.Add([]byte{8, 0, 0, 1, 1, 1, 1, 1, 0, 1, 3, 0, 0, 1, 0, 1, 1, 1, 0, 0, 3}) // one just past it, one at it
	f.Add([]byte{8, 0, 0, 1, 253, 1, 1, 1, 0, 253, 2, 0, 0, 1, 252, 1, 1, 1, 0, 252, 2,
		0, 0, 1, 255, 1, 1, 1, 0, 255, 2}) // IDs 0 and -1 beside ID 2
	f.Add([]byte{9, 0, 0, 255, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 2}) // to p2^32+1 with an in-range ID, in flight
	f.Add([]byte{8, 0, 0, 255, 0, 1, 0, 0, 1, 0, 1})                // sent twice: to p2^32+1, then to p1
	f.Add([]byte{8, 0, 0, 1, 0, 1, 0, 0, 255, 0, 1})                // sent twice: to p1, then to p2^32+1
	f.Add([]byte{8, 0, 0, 255, 0, 1, 1, 1, 0, 0, 2})                // to p2^32+1, received by p1
	f.Fuzz(func(t *testing.T, data []byte) {
		e := decodeExecution(data)
		want, ok := naiveMessages(e)

		var walked []model.Message
		err := e.EachMessage(func(m model.Message) error {
			walked = append(walked, m)
			return nil
		})
		if (err == nil) != ok {
			t.Fatalf("EachMessage error = %v, reference accepts = %v", err, ok)
		}
		if ok && !reflect.DeepEqual(walked, want) {
			t.Fatalf("EachMessage:\n got %v\nwant %v", walked, want)
		}

		msgs, err := e.Messages()
		if (err == nil) != ok {
			t.Fatalf("Messages error = %v, reference accepts = %v", err, ok)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		if ok && !reflect.DeepEqual(msgs, want) {
			t.Fatalf("Messages:\n got %v\nwant %v", msgs, want)
		}

		valid := ok
		for _, h := range e.Histories {
			valid = valid && h.Validate() == nil
		}
		if err := e.Validate(); (err == nil) != valid {
			t.Fatalf("Validate error = %v, reference accepts = %v", err, valid)
		}
	})
}
