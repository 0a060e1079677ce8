// Package model implements the formal model of computation of Attiya,
// Herzberg and Rajsbaum (PODC'93), Section 2: processors with drift-free
// clocks, events, steps, histories, views, executions, the shift operator,
// and execution equivalence.
//
// A processor's clock shows t - S at real time t, where S is the real time
// of its start event. A history therefore consists of a start time S and a
// sequence of steps stamped with clock times; the real time of a step is
// S + clock. Shifting a history by s (Lemma 4.1) simply replaces S with
// S - s, leaving all clock times — and hence the view — unchanged.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// ProcID identifies a processor (0-based dense index).
type ProcID int

// MsgID uniquely identifies a message within an execution.
type MsgID int64

// Kind enumerates event kinds at a processor.
type Kind int

// Event kinds. Start, Recv and Timer are interrupt events; Send and
// TimerSet appear in the output of the transition function.
const (
	KindStart Kind = iota + 1
	KindSend
	KindRecv
	KindTimerSet
	KindTimer
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindTimerSet:
		return "timer-set"
	case KindTimer:
		return "timer"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a single event at a processor. Peer and Msg are meaningful for
// send/receive events; At is meaningful for timer-set/timer events and holds
// the clock time the timer is (or was) set for.
type Event struct {
	Kind Kind
	Peer ProcID
	Msg  MsgID
	At   float64
}

// Step is an event together with the clock time at which it occurred.
// (The paper's step tuple also carries automaton states; states are
// irrelevant to shifts and precision, so they are elided here.)
type Step struct {
	Clock float64
	Event Event
}

// History is the activity of one processor in an execution: its start real
// time and its steps ordered by clock time. Steps[0] must be the start event
// at clock 0 for a well-formed history.
type History struct {
	Proc  ProcID
	Start float64 // S_pi: real time of the start event
	Steps []Step
}

// RealTime returns the real time at which step i occurred.
func (h *History) RealTime(i int) float64 { return h.Start + h.Steps[i].Clock }

// Validate checks the well-formedness conditions of Section 2.1 that are
// expressible without the automaton: a unique leading start event at clock 0
// and non-decreasing clock times.
func (h *History) Validate() error {
	if len(h.Steps) == 0 {
		return fmt.Errorf("model: history of p%d has no steps", h.Proc)
	}
	if h.Steps[0].Event.Kind != KindStart {
		return fmt.Errorf("model: history of p%d does not begin with a start event", h.Proc)
	}
	if h.Steps[0].Clock != 0 {
		return fmt.Errorf("model: history of p%d starts at clock %v, want 0", h.Proc, h.Steps[0].Clock)
	}
	for i, s := range h.Steps {
		if i > 0 && s.Event.Kind == KindStart {
			return fmt.Errorf("model: history of p%d has a second start event at step %d", h.Proc, i)
		}
		if math.IsNaN(s.Clock) || math.IsInf(s.Clock, 0) {
			return fmt.Errorf("model: history of p%d step %d has invalid clock %v", h.Proc, i, s.Clock)
		}
		if i > 0 && s.Clock < h.Steps[i-1].Clock {
			return fmt.Errorf("model: history of p%d steps out of order at %d (%v < %v)",
				h.Proc, i, s.Clock, h.Steps[i-1].Clock)
		}
	}
	return nil
}

// Shift returns shift(h, s): the same steps, executed s earlier in real
// time. Per Lemma 4.1 the result is a history with start time Start - s and
// an identical view.
func (h *History) Shift(s float64) *History {
	return &History{
		Proc:  h.Proc,
		Start: h.Start - s,
		Steps: append([]Step(nil), h.Steps...),
	}
}

// View is the observable part of a history: the step sequence with clock
// times but no real times (Section 2.1). Two histories are equivalent iff
// their views are equal.
type View struct {
	Proc  ProcID
	Steps []Step
}

// View projects the history onto its view.
func (h *History) View() View {
	return View{Proc: h.Proc, Steps: append([]Step(nil), h.Steps...)}
}

// Equal reports whether two views are identical.
func (v View) Equal(o View) bool {
	if v.Proc != o.Proc || len(v.Steps) != len(o.Steps) {
		return false
	}
	for i := range v.Steps {
		if v.Steps[i] != o.Steps[i] {
			return false
		}
	}
	return true
}

// Execution is a set of histories, one per processor, with an implicit
// message correspondence given by shared MsgIDs: every message received must
// have been sent exactly once, with matching endpoints.
type Execution struct {
	Histories []*History // indexed by ProcID
}

// NewExecution allocates an execution skeleton for n processors with the
// given start times; each history initially holds only its start event.
func NewExecution(starts []float64) *Execution {
	e := &Execution{Histories: make([]*History, len(starts))}
	for p, s := range starts {
		e.Histories[p] = &History{
			Proc:  ProcID(p),
			Start: s,
			Steps: []Step{{Clock: 0, Event: Event{Kind: KindStart}}},
		}
	}
	return e
}

// N returns the number of processors.
func (e *Execution) N() int { return len(e.Histories) }

// Starts returns the vector of start real times S_{alpha,p}.
func (e *Execution) Starts() []float64 {
	s := make([]float64, len(e.Histories))
	for i, h := range e.Histories {
		s[i] = h.Start
	}
	return s
}

// Views returns the views of all processors.
func (e *Execution) Views() []View {
	vs := make([]View, len(e.Histories))
	for i, h := range e.Histories {
		vs[i] = h.View()
	}
	return vs
}

// Equivalent reports whether two executions are indistinguishable to the
// processors (equal views everywhere).
func Equivalent(a, b *Execution) bool {
	if a.N() != b.N() {
		return false
	}
	for i := range a.Histories {
		if !a.Histories[i].View().Equal(b.Histories[i].View()) {
			return false
		}
	}
	return true
}

// Shift returns shift(e, S): processor p's history shifted by shifts[p],
// with the same message correspondence. Per Section 4.1 the result is
// equivalent to e.
func (e *Execution) Shift(shifts []float64) (*Execution, error) {
	if len(shifts) != e.N() {
		return nil, fmt.Errorf("model: shift vector has %d entries, want %d", len(shifts), e.N())
	}
	out := &Execution{Histories: make([]*History, e.N())}
	for p, h := range e.Histories {
		out.Histories[p] = h.Shift(shifts[p])
	}
	return out, nil
}

// Message is the resolved record of one message in an execution.
type Message struct {
	ID        MsgID
	From, To  ProcID
	SendClock float64 // sender clock time at send
	RecvClock float64 // receiver clock time at receipt
}

// Delay returns the real-time delay d(m) of the message within execution e.
func (m Message) Delay(e *Execution) float64 {
	send := e.Histories[m.From].Start + m.SendClock
	recv := e.Histories[m.To].Start + m.RecvClock
	return recv - send
}

// EstimatedDelay returns d~(m) = d(m) + S_from - S_to, which by Lemma 6.1 is
// computable from the views alone: it equals RecvClock - SendClock.
func (m Message) EstimatedDelay() float64 { return m.RecvClock - m.SendClock }

// EachMessage resolves the message correspondence of the execution, in
// one pass over the sends and one over the receipts, and calls fn once
// per delivered message, in receiver order: by receiving processor, then
// by receipt step. It returns an error if a message was sent twice, or
// if a received message was never sent, has mismatched endpoints or is
// received more than once. (Unreceived messages are permitted: the system
// may still be "in flight".) The walk stops at the first failure in that
// order, a correspondence error or an error of fn, returned unchanged.
func (e *Execution) EachMessage(fn func(Message) error) error {
	x := newSendIndex(e)
	if err := x.addSends(e); err != nil {
		return err
	}
	return x.eachReceipt(e, fn)
}

// sendRec is one send in 16 bytes: its clock, its receiver, and its
// sender plus one, negated once delivered. The zero record is not sent.
type sendRec struct {
	clock    float64
	from, to int32
}

// wideSend is a send at full width: a spill map entry, and how the
// receipt pass reads any send.
type wideSend struct {
	from, to  ProcID
	clock     float64
	delivered bool
}

// sendIndex finds sends by message ID. The send of ID k sits in
// recs[k-1] for k in 1..⌊(S−n)/2⌋, S the execution's step count and n its
// history count: a delivered message takes two steps and each history one
// start step, so the IDs 1..m of every Builder execution fit. Other IDs,
// and sends whose endpoints do not fit a sendRec, go to the spill map,
// made on first use.
type sendIndex struct {
	recs  []sendRec
	spill map[MsgID]*wideSend
}

// newSendIndex sizes the index's slice for e.
func newSendIndex(e *Execution) sendIndex {
	steps := 0
	for _, h := range e.Histories {
		steps += len(h.Steps)
	}
	return sendIndex{recs: make([]sendRec, max(0, (steps-len(e.Histories))/2))}
}

// slot returns the record of id, or nil when id is outside the slice.
func (x *sendIndex) slot(id MsgID) *sendRec {
	if k := uint64(id) - 1; k < uint64(len(x.recs)) {
		return &x.recs[k]
	}
	return nil
}

// addSends records every send of the execution, in one pass.
func (x *sendIndex) addSends(e *Execution) error {
	for _, h := range e.Histories {
		fromFits := h.Proc >= 0 && h.Proc < math.MaxInt32
		for i := range h.Steps {
			st := &h.Steps[i]
			if st.Event.Kind != KindSend {
				continue
			}
			id, to := st.Event.Msg, st.Event.Peer
			r := x.slot(id)
			if r != nil && r.from != 0 || x.spill != nil && x.spill[id] != nil {
				return fmt.Errorf("model: message %d sent twice", id)
			}
			if r != nil && fromFits && to == ProcID(int32(to)) {
				*r = sendRec{clock: st.Clock, from: int32(h.Proc) + 1, to: int32(to)}
				continue
			}
			if x.spill == nil {
				x.spill = make(map[MsgID]*wideSend)
			}
			x.spill[id] = &wideSend{from: h.Proc, to: to, clock: st.Clock}
		}
	}
	return nil
}

// eachReceipt checks every receipt against its send, in receiver order,
// marks the send delivered and calls fn with the message.
func (x *sendIndex) eachReceipt(e *Execution, fn func(Message) error) error {
	for _, h := range e.Histories {
		for i := range h.Steps {
			st := &h.Steps[i]
			if st.Event.Kind != KindRecv {
				continue
			}
			id := st.Event.Msg
			var s wideSend
			if r := x.slot(id); r != nil && r.from != 0 {
				s = wideSend{from: ProcID(max(r.from, -r.from) - 1), to: ProcID(r.to), clock: r.clock, delivered: r.from < 0}
				r.from = min(r.from, -r.from)
			} else if w := x.spill[id]; w != nil {
				s = *w
				w.delivered = true
			} else {
				return fmt.Errorf("model: message %d received by p%d but never sent", id, h.Proc)
			}
			if s.delivered {
				return fmt.Errorf("model: message %d delivered twice", id)
			}
			if s.to != h.Proc || s.from != st.Event.Peer {
				return fmt.Errorf("model: message %d endpoint mismatch: sent p%d->p%d, received by p%d from p%d",
					id, s.from, s.to, h.Proc, st.Event.Peer)
			}
			if err := fn(Message{ID: id, From: s.from, To: h.Proc, SendClock: s.clock, RecvClock: st.Clock}); err != nil {
				return err
			}
		}
	}
	return nil
}

// count returns the number of steps of the given kind in the execution.
func (e *Execution) count(k Kind) int {
	n := 0
	for _, h := range e.Histories {
		for _, st := range h.Steps {
			if st.Event.Kind == k {
				n++
			}
		}
	}
	return n
}

// Messages returns the delivered messages of EachMessage in ID order, and
// fails where EachMessage does. It is for callers that need that order;
// order-free reductions fold over EachMessage instead.
func (e *Execution) Messages() ([]Message, error) {
	msgs := slices.Grow([]Message(nil), e.count(KindRecv)) // nil when nothing is delivered
	if err := e.EachMessage(func(m Message) error {
		msgs = append(msgs, m)
		return nil
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(msgs, func(a, b Message) int { return cmp.Compare(a.ID, b.ID) })
	return msgs, nil
}

// Validate checks every history and the message correspondence, and that
// all message delays are finite.
func (e *Execution) Validate() error {
	for _, h := range e.Histories {
		if err := h.Validate(); err != nil {
			return err
		}
	}
	return e.EachMessage(func(m Message) error {
		if d := m.Delay(e); math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("model: message %d has invalid delay %v", m.ID, d)
		}
		return nil
	})
}

// ValidateTimers checks condition 6 of Section 2.1 in its safe direction:
// every timer interrupt was previously set for exactly that clock time.
// (Set-but-never-fired timers are permitted, like in-flight messages.)
func (e *Execution) ValidateTimers() error {
	for _, h := range e.Histories {
		pending := make(map[float64]int)
		for _, st := range h.Steps {
			switch st.Event.Kind {
			case KindTimerSet:
				if st.Event.At < st.Clock {
					return fmt.Errorf("model: p%d sets a timer at clock %v for the past (%v)", h.Proc, st.Clock, st.Event.At)
				}
				pending[st.Event.At]++
			case KindTimer:
				if pending[st.Event.At] == 0 {
					return fmt.Errorf("model: p%d receives an unset timer for clock %v", h.Proc, st.Event.At)
				}
				pending[st.Event.At]--
				// Timers fire at bit-exact scheduled clocks in the model;
				// inequality here means a malformed history, not roundoff.
				if st.Clock != st.Event.At { //clocklint:allow floateq

					return fmt.Errorf("model: p%d timer for clock %v fires at clock %v", h.Proc, st.Event.At, st.Clock)
				}
			}
		}
	}
	return nil
}
