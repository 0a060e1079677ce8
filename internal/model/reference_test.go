package model_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"clocksync/internal/model"
)

// refBuilder is the naive reference for model.Builder: it keeps delivered
// messages in ID order and timers in the order they were added, and Build
// appends every timer's steps, then every message's, to fresh histories
// and sorts each history stably by clock, so steps at one clock keep that
// order.
type refBuilder struct {
	starts []float64
	msgs   []model.Message
	timers []refTimer
}

type refTimer struct {
	p             model.ProcID
	setAt, fireAt float64
	fired         bool
}

func (b *refBuilder) addMessage(from, to model.ProcID, sendClock, recvClock float64) (model.MsgID, bool) {
	n := model.ProcID(len(b.starts))
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return 0, false
	}
	id := model.MsgID(len(b.msgs) + 1)
	b.msgs = append(b.msgs, model.Message{ID: id, From: from, To: to, SendClock: sendClock, RecvClock: recvClock})
	return id, true
}

func (b *refBuilder) addTimer(p model.ProcID, setAt, fireAt float64, fired bool) bool {
	if p < 0 || int(p) >= len(b.starts) || fireAt < setAt {
		return false
	}
	b.timers = append(b.timers, refTimer{p: p, setAt: setAt, fireAt: fireAt, fired: fired})
	return true
}

func (b *refBuilder) build() (*model.Execution, error) {
	e := model.NewExecution(b.starts)
	for _, tr := range b.timers {
		h := e.Histories[tr.p]
		h.Steps = append(h.Steps, model.Step{Clock: tr.setAt, Event: model.Event{Kind: model.KindTimerSet, At: tr.fireAt}})
		if tr.fired {
			h.Steps = append(h.Steps, model.Step{Clock: tr.fireAt, Event: model.Event{Kind: model.KindTimer, At: tr.fireAt}})
		}
	}
	for _, m := range b.msgs {
		e.Histories[m.From].Steps = append(e.Histories[m.From].Steps, model.Step{
			Clock: m.SendClock, Event: model.Event{Kind: model.KindSend, Peer: m.To, Msg: m.ID}})
		e.Histories[m.To].Steps = append(e.Histories[m.To].Steps, model.Step{
			Clock: m.RecvClock, Event: model.Event{Kind: model.KindRecv, Peer: m.From, Msg: m.ID}})
	}
	for _, h := range e.Histories {
		slices.SortStableFunc(h.Steps[1:], func(a, b model.Step) int { return cmp.Compare(a.Clock, b.Clock) })
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// sameSteps compares two executions step for step, clocks by their bits.
func sameSteps(t *testing.T, got, want *model.Execution) {
	t.Helper()
	for p, h := range want.Histories {
		g := got.Histories[p]
		if g.Proc != h.Proc || math.Float64bits(g.Start) != math.Float64bits(h.Start) || len(g.Steps) != len(h.Steps) {
			t.Fatalf("p%d: got %d steps from %v, want %d from %v\n got %v\nwant %v",
				p, len(g.Steps), g.Start, len(h.Steps), h.Start, g.Steps, h.Steps)
		}
		for i, st := range h.Steps {
			if gs := g.Steps[i]; !sameStep(gs, st) {
				t.Fatalf("p%d step %d: got %+v, want %+v\n got %v\nwant %v", p, i, gs, st, g.Steps, h.Steps)
			}
		}
	}
}

// sameStep compares two steps, floats by their bits.
func sameStep(a, b model.Step) bool {
	return math.Float64bits(a.Clock) == math.Float64bits(b.Clock) && a.Event.Kind == b.Event.Kind &&
		a.Event.Peer == b.Event.Peer && a.Event.Msg == b.Event.Msg &&
		math.Float64bits(a.Event.At) == math.Float64bits(b.Event.At)
}

// builderOps drives a Builder and the reference through the same
// operations decoded from fuzz bytes. A shared real time advances by 0,
// 0, 0.25 or 1 per step, so clocks tie often. Every four bytes are one
// operation:
//
//   - send: log a send at the current time (the reference sees nothing
//     until it is delivered);
//   - deliver: deliver one pending send at the current time, in event
//     order, like the simulator; the reference adds the message then;
//   - message: AddMessage with clocks drawn from a small grid that also
//     holds -1 and NaN, out of order;
//   - timer: AddTimer from the same grid, fired or not.
//
// Endpoints may coincide or fall out of range, and both sides must reject
// the same operations.
type builderOps struct {
	t       *testing.T
	b       *model.Builder
	ref     *refBuilder
	n       int
	now     float64
	pending []pendingSend
}

type pendingSend struct {
	ref      model.SendRef
	from, to model.ProcID
	clock    float64 // sender clock at Send
}

var grid = []float64{-1, 0, 0.5, 0.5, 1, 1, 1, 2, math.NaN(), 3}

func (o *builderOps) apply(data []byte) {
	for ; len(data) >= 4; data = data[4:] {
		o.now += []float64{0, 0, 0.25, 1}[data[0]>>6]
		from := model.ProcID(int(data[1]%8) % (o.n + 1))
		to := model.ProcID(int(data[2]%8) % (o.n + 1))
		starts := o.ref.starts
		clock := func(p model.ProcID) float64 { return o.now - starts[p] }
		switch data[0] % 4 {
		case 0:
			var sendClock float64
			if int(from) < o.n {
				sendClock = clock(from)
			}
			ref, err := o.b.Send(from, to, sendClock)
			if ok := from != to && int(from) < o.n && int(to) < o.n; (err == nil) != ok {
				o.t.Fatalf("Send(p%d, p%d) error = %v, want ok = %v", from, to, err, ok)
			}
			if err == nil {
				o.pending = append(o.pending, pendingSend{ref: ref, from: from, to: to, clock: sendClock})
			}
		case 1:
			if len(o.pending) == 0 {
				continue
			}
			i := int(data[3]) % len(o.pending)
			ps := o.pending[i]
			o.pending = slices.Delete(o.pending, i, i+1)
			id, err := o.b.Deliver(ps.ref, clock(ps.to))
			if err != nil {
				o.t.Fatalf("Deliver: %v", err)
			}
			// The reference learns of the message at delivery, as the
			// simulator's builder used to, and must assign the same ID.
			if want, _ := o.ref.addMessage(ps.from, ps.to, ps.clock, clock(ps.to)); id != want {
				o.t.Fatalf("Deliver ID = %d, reference %d", id, want)
			}
		case 2:
			sc, rc := grid[data[3]%10], grid[data[3]/10%10]
			id, err := o.b.AddMessage(from, to, sc, rc)
			want, ok := o.ref.addMessage(from, to, sc, rc)
			if (err == nil) != ok || id != want {
				o.t.Fatalf("AddMessage(p%d, p%d) = %d, %v; reference %d, %v", from, to, id, err, want, ok)
			}
		case 3:
			set, fire, fired := grid[data[3]%10], grid[data[3]/10%10], data[3] >= 128
			err := o.b.AddTimer(from, set, fire, fired)
			if ok := o.ref.addTimer(from, set, fire, fired); (err == nil) != ok {
				o.t.Fatalf("AddTimer(p%d, %v, %v) error = %v, reference ok = %v", from, set, fire, err, ok)
			}
		}
	}
}

// build builds both sides and compares them: the same acceptance, the
// same error text, and on success every history step for step.
func (o *builderOps) build() *model.Execution {
	o.t.Helper()
	got, err := o.b.Build()
	want, wantErr := o.ref.build()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		o.t.Fatalf("Build error = %v, reference %v", err, wantErr)
	}
	if err == nil {
		sameSteps(o.t, got, want)
	}
	return got
}

// FuzzBuilderMatchesReference checks Builder against the naive
// reference: interleaved Send and Deliver in event order, sends never
// delivered, out-of-order AddMessage, AddTimer and heavy clock ties must
// build the same histories step for step, with the same IDs, or fail
// alike. The operations run in two phases with a Build after each: the
// first execution must not change when the builder records more, and
// sends pending at a Build can no longer be delivered.
func FuzzBuilderMatchesReference(f *testing.F) {
	// data[0] picks n and the starts, data[1] the phase split, then four
	// bytes per operation: kind (low bits) and time step (high bits),
	// sender, receiver, argument.
	f.Add([]byte{0, 15, 0, 0, 1, 0, 129, 0, 0, 0})                                      // one message in event order
	f.Add([]byte{0, 15, 0, 0, 1, 0, 0, 0, 1, 0, 129, 0, 0, 1, 1, 0, 0, 0})              // two sends at one clock, delivered in reverse
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 0, 1, 0, 129, 0, 0, 0, 0, 0, 1, 0, 129, 0, 0, 0}) // a send pending at the first Build
	f.Add([]byte{1, 15, 2, 0, 1, 47, 2, 1, 0, 12, 3, 2, 0, 131, 2, 1, 2, 55})           // out-of-order messages and a timer
	f.Add([]byte{0, 15, 2, 0, 1, 8, 2, 0, 1, 44, 0, 0, 0, 0, 0, 2, 0, 0})               // a NaN clock, bad endpoints
	long := []byte{0, 15}
	for i := 0; i < 40; i++ {
		long = append(long, 0, 0, 1, 0) // 40 sends at one clock
	}
	for i := 0; i < 40; i++ {
		long = append(long, 1, 0, 0, byte(7*i)) // delivered in scrambled order
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%3)
		starts := make([]float64, n)
		for p := range starts {
			starts[p] = float64((int(data[0]>>2)+p)%3) / 2 // equal starts: equal clocks across processors
		}
		o := &builderOps{t: t, b: model.NewBuilder(starts), ref: &refBuilder{starts: starts}, n: n}
		body := data[2:]
		split := min(4*int(data[1]%16), len(body))
		o.apply(body[:split])
		first := o.build()
		var snapshot [][]model.Step
		if first != nil {
			for _, h := range first.Histories {
				snapshot = append(snapshot, slices.Clone(h.Steps))
			}
		}
		for _, ps := range o.pending {
			if _, err := o.b.Deliver(ps.ref, 0); err == nil {
				t.Fatal("Deliver of a send pending at Build succeeded")
			}
		}
		o.pending = nil
		o.apply(body[split:])
		o.build()
		for p, steps := range snapshot {
			if !slices.EqualFunc(steps, first.Histories[p].Steps, sameStep) {
				t.Fatalf("p%d history of the first Build changed", p)
			}
		}
	})
}
