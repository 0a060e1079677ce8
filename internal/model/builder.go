package model

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder assembles an Execution from message records without requiring
// callers to maintain clock-ordered step slices by hand. It is the bridge
// between the simulator (which produces messages) and the formal model.
type Builder struct {
	starts []float64
	msgs   []Message
	timers []timerRec
	nextID MsgID
}

// timerRec is a pending or fired timer for Build.
type timerRec struct {
	p      ProcID
	setAt  float64
	fireAt float64
	fired  bool
}

// NewBuilder returns a builder for len(starts) processors with the given
// start real times.
func NewBuilder(starts []float64) *Builder {
	return &Builder{starts: append([]float64(nil), starts...), nextID: 1}
}

// N returns the number of processors.
func (b *Builder) N() int { return len(b.starts) }

// AddMessage records a delivered message from -> to with the given sender
// and receiver clock times, returning its assigned MsgID.
func (b *Builder) AddMessage(from, to ProcID, sendClock, recvClock float64) (MsgID, error) {
	if int(from) < 0 || int(from) >= len(b.starts) {
		return 0, fmt.Errorf("model: sender p%d out of range", from)
	}
	if int(to) < 0 || int(to) >= len(b.starts) {
		return 0, fmt.Errorf("model: receiver p%d out of range", to)
	}
	if from == to {
		return 0, fmt.Errorf("model: self-message at p%d", from)
	}
	id := b.nextID
	b.nextID++
	b.msgs = append(b.msgs, Message{
		ID: id, From: from, To: to,
		SendClock: sendClock, RecvClock: recvClock,
	})
	return id, nil
}

// AddMessageDelay records a message sent at real time sendReal with real
// delay d, converting to clock times using the builder's start vector.
func (b *Builder) AddMessageDelay(from, to ProcID, sendReal, d float64) (MsgID, error) {
	if int(from) < 0 || int(from) >= len(b.starts) || int(to) < 0 || int(to) >= len(b.starts) {
		return 0, fmt.Errorf("model: endpoint out of range (p%d -> p%d)", from, to)
	}
	sendClock := sendReal - b.starts[from]
	recvClock := sendReal + d - b.starts[to]
	return b.AddMessage(from, to, sendClock, recvClock)
}

// Build constructs the execution: per-processor step sequences sorted by
// clock time, each preceded by its start event.
func (b *Builder) Build() (*Execution, error) {
	e := NewExecution(b.starts)
	for _, tr := range b.timers {
		e.Histories[tr.p].Steps = append(e.Histories[tr.p].Steps, Step{
			Clock: tr.setAt,
			Event: Event{Kind: KindTimerSet, At: tr.fireAt},
		})
		if tr.fired {
			e.Histories[tr.p].Steps = append(e.Histories[tr.p].Steps, Step{
				Clock: tr.fireAt,
				Event: Event{Kind: KindTimer, At: tr.fireAt},
			})
		}
	}
	for _, m := range b.msgs {
		e.Histories[m.From].Steps = append(e.Histories[m.From].Steps, Step{
			Clock: m.SendClock,
			Event: Event{Kind: KindSend, Peer: m.To, Msg: m.ID},
		})
		e.Histories[m.To].Steps = append(e.Histories[m.To].Steps, Step{
			Clock: m.RecvClock,
			Event: Event{Kind: KindRecv, Peer: m.From, Msg: m.ID},
		})
	}
	for _, h := range e.Histories {
		// Keep the start event first; steps at one clock keep the order
		// they were added in.
		slices.SortStableFunc(h.Steps[1:], func(a, b Step) int { return cmp.Compare(a.Clock, b.Clock) })
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// AddTimer records a timer set at clock setAt for clock fireAt, optionally
// fired (a set timer may never fire if the run ends first — analogous to
// an in-flight message).
func (b *Builder) AddTimer(p ProcID, setAt, fireAt float64, fired bool) error {
	if int(p) < 0 || int(p) >= len(b.starts) {
		return fmt.Errorf("model: timer processor p%d out of range", p)
	}
	if fireAt < setAt {
		return fmt.Errorf("model: timer at p%d set at clock %v for earlier clock %v", p, setAt, fireAt)
	}
	b.timers = append(b.timers, timerRec{p: p, setAt: setAt, fireAt: fireAt, fired: fired})
	return nil
}
