package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Builder assembles an Execution from the steps of a run without requiring
// callers to keep clock-ordered step slices by hand. It is the bridge
// between the simulator (which produces messages) and the formal model.
//
// Steps are logged per processor in the order they are recorded, and the
// logs become the histories: a send is logged when it happens (Send) and
// gets its message ID when it is delivered (Deliver), as its receipt is
// logged. A caller that records every step in time order, as the
// simulator does, hands Build logs that need no sort beyond the order of
// steps at one clock.
type Builder struct {
	starts []float64
	logs   [][]Step // per processor; logs[p][0] is the start event
	nextID MsgID
	builds int32 // Build calls so far: the generation of new SendRefs
}

// SendRef names a send logged by Builder.Send, for the Deliver that
// assigns its message ID.
type SendRef struct {
	from  ProcID
	step  int32 // index in the sender's log
	build int32 // the builder's Build count at Send
}

// pending is the message ID of a logged send not yet delivered. Builder
// IDs start at 1.
const pending MsgID = 0

// NewBuilder returns a builder for len(starts) processors with the given
// start real times.
func NewBuilder(starts []float64) *Builder {
	b := &Builder{starts: append([]float64(nil), starts...), logs: make([][]Step, len(starts)), nextID: 1}
	for p := range b.logs {
		b.logs[p] = []Step{{Clock: 0, Event: Event{Kind: KindStart}}}
	}
	return b
}

// N returns the number of processors.
func (b *Builder) N() int { return len(b.starts) }

// Send logs a message from -> to sent at sender clock sendClock. The send
// gets its message ID when Deliver delivers it; Build drops sends never
// delivered (messages still in flight).
func (b *Builder) Send(from, to ProcID, sendClock float64) (SendRef, error) {
	if int(from) < 0 || int(from) >= len(b.starts) {
		return SendRef{}, fmt.Errorf("model: sender p%d out of range", from)
	}
	if int(to) < 0 || int(to) >= len(b.starts) {
		return SendRef{}, fmt.Errorf("model: receiver p%d out of range", to)
	}
	if from == to {
		return SendRef{}, fmt.Errorf("model: self-message at p%d", from)
	}
	if len(b.logs[from]) > math.MaxInt32 {
		return SendRef{}, fmt.Errorf("model: log of p%d is full", from)
	}
	ref := SendRef{from: from, step: int32(len(b.logs[from])), build: b.builds}
	b.logs[from] = append(b.logs[from], Step{Clock: sendClock, Event: Event{Kind: KindSend, Peer: to}})
	return ref, nil
}

// Deliver delivers a logged send at receiver clock recvClock: it assigns
// the message the next ID, in delivery order, and logs the receipt. A
// send logged before the last Build is void and cannot be delivered.
func (b *Builder) Deliver(ref SendRef, recvClock float64) (MsgID, error) {
	if ref.build != b.builds {
		return 0, fmt.Errorf("model: send %d of p%d was logged before Build", ref.step, ref.from)
	}
	if int(ref.from) < 0 || int(ref.from) >= len(b.logs) || ref.step < 1 || int(ref.step) >= len(b.logs[ref.from]) {
		return 0, fmt.Errorf("model: no logged send %d of p%d", ref.step, ref.from)
	}
	send := &b.logs[ref.from][ref.step].Event
	if send.Kind != KindSend || send.Msg != pending {
		return 0, fmt.Errorf("model: step %d of p%d is not a pending send", ref.step, ref.from)
	}
	id := b.nextID
	b.nextID++
	send.Msg = id
	b.logs[send.Peer] = append(b.logs[send.Peer], Step{Clock: recvClock, Event: Event{Kind: KindRecv, Peer: ref.from, Msg: id}})
	return id, nil
}

// AddMessage records a delivered message from -> to with the given sender
// and receiver clock times, returning its assigned MsgID: a Send followed
// by its Deliver.
func (b *Builder) AddMessage(from, to ProcID, sendClock, recvClock float64) (MsgID, error) {
	ref, err := b.Send(from, to, sendClock)
	if err != nil {
		return 0, err
	}
	return b.Deliver(ref, recvClock)
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
	b.logs[p] = append(b.logs[p], Step{Clock: setAt, Event: Event{Kind: KindTimerSet, At: fireAt}})
	if fired {
		b.logs[p] = append(b.logs[p], Step{Clock: fireAt, Event: Event{Kind: KindTimer, At: fireAt}})
	}
	return nil
}

// Build constructs and validates the execution: each history is its
// processor's start event followed by its steps ordered by clock time,
// without the sends never delivered. Steps at one clock are ordered by
// the tie rule of compareSteps. A log already in clock order (the
// simulator's) is only reordered within runs of equal clocks, in place,
// and becomes the history without a copy; any other log is sorted once,
// in a copy that replaces it. Build voids every SendRef still pending.
//
// The histories never change after Build: a log that became a history
// is capped, so later steps recorded on the builder go to a new array.
func (b *Builder) Build() (*Execution, error) {
	b.builds++
	e := &Execution{Histories: make([]*History, len(b.starts))}
	for p := range b.logs {
		e.Histories[p] = &History{Proc: ProcID(p), Start: b.starts[p], Steps: b.settle(p)}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// compareSteps is the order of a built history: by clock; at equal clocks
// timer steps first, in the order they were recorded (the sort is
// stable), then message steps by ID. It is the order of a stable sort by
// clock of the timer steps in recording order followed by the message
// steps in ID order.
func compareSteps(a, b Step) int {
	if c := cmp.Compare(a.Clock, b.Clock); c != 0 {
		return c
	}
	return cmp.Compare(tieKey(a), tieKey(b))
}

// tieKey ranks a step within a run of equal clocks: 0 for timer steps,
// the message ID (at least 1) for message steps.
func tieKey(s Step) MsgID {
	if s.Event.Kind == KindSend || s.Event.Kind == KindRecv {
		return s.Event.Msg
	}
	return 0
}

// isPending reports whether st is a logged send not yet delivered.
func isPending(st Step) bool { return st.Event.Kind == KindSend && st.Event.Msg == pending }

// settle returns p's history steps: it drops the pending sends from p's
// log, then one pass finds whether the log is in clock order and whether
// any run of equal clocks breaks the tie rule.
func (b *Builder) settle(p int) []Step {
	log := slices.DeleteFunc(b.logs[p], isPending)
	inOrder, tiesSorted := true, true
	for i := 2; i < len(log); i++ {
		// !(>=) also catches NaN, which the sort's cmp.Compare places
		// first: the full sort reproduces it exactly.
		if !(log[i].Clock >= log[i-1].Clock) {
			inOrder = false
			break
		}
		if log[i].Clock == log[i-1].Clock && tieKey(log[i]) < tieKey(log[i-1]) { //clocklint:allow floateq
			tiesSorted = false
		}
	}
	switch {
	case !inOrder:
		// Sorted in a copy sized to the history, so the log's append
		// growth slack does not stay alive with it.
		log = slices.Clone(log)
		slices.SortStableFunc(log[1:], compareSteps)
	case !tiesSorted:
		for i := 1; i < len(log); {
			j := i + 1
			for j < len(log) && log[j].Clock == log[i].Clock { //clocklint:allow floateq
				j++
			}
			if j-i > 1 {
				slices.SortStableFunc(log[i:j], compareSteps)
			}
			i = j
		}
	}
	log = log[:len(log):len(log)]
	b.logs[p] = log
	return log
}
