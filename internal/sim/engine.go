package sim

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"slices"

	"clocksync/internal/model"
	"clocksync/internal/obs"
)

// Engine-level observability: counters are process-wide totals in the
// obs default registry (atomic adds, negligible next to delay sampling
// and the event heap); the logger is a nop unless the application
// installs one via obs.SetLogger.
var (
	simLog = obs.For("sim")

	mEvents        = obs.Default.Counter("sim.events.processed")
	mEventsCrashed = obs.Default.Counter("sim.events.dropped.crashed")
	mSent          = obs.Default.Counter("sim.messages.sent")
	mDelivered     = obs.Default.Counter("sim.messages.delivered")
	mDropPartition = obs.Default.Counter("sim.messages.dropped.partition")
	mDropInjected  = obs.Default.Counter("sim.messages.dropped.loss")
	mDropLink      = obs.Default.Counter("sim.messages.dropped.linkloss")
	mMutated       = obs.Default.Counter("sim.messages.mutated")
	mTimersFired   = obs.Default.Counter("sim.timers.fired")
	mRuns          = obs.Default.Counter("sim.runs")
)

// Network describes the simulated system: processor start times and links
// with their delay models.
type Network struct {
	starts []float64
	adj    [][]int // neighbors in link order
	hops   [][]hop // per sender, sorted by receiver
}

// hop is one link as a sender sees it: the receiver, the link's delay
// model, and the model's optional interfaces, asserted once.
type hop struct {
	to   int
	pq   bool // the sender is the canonical P
	d    LinkDelays
	ta   TimeAware // d as a TimeAware, or nil
	loss LossModel // d as a LossModel, or nil
}

// NewNetwork builds a network. starts[p] is the real time of p's start
// event. Every link must appear exactly once (any orientation); its delay
// model's PQ direction refers to the canonical orientation P < Q.
func NewNetwork(starts []float64, links []Pair, delays func(Pair) LinkDelays) (*Network, error) {
	n := len(starts)
	if err := Validate(n, links); err != nil {
		return nil, err
	}
	net := &Network{
		starts: append([]float64(nil), starts...),
		adj:    make([][]int, n),
		hops:   make([][]hop, n),
	}
	for _, e := range links {
		c := orderPair(e.P, e.Q)
		d := delays(c)
		if d == nil {
			return nil, fmt.Errorf("sim: nil delay model for link (%d,%d)", c.P, c.Q)
		}
		ta, _ := d.(TimeAware)
		loss, _ := d.(LossModel)
		net.adj[c.P] = append(net.adj[c.P], c.Q)
		net.adj[c.Q] = append(net.adj[c.Q], c.P)
		net.hops[c.P] = append(net.hops[c.P], hop{to: c.Q, pq: true, d: d, ta: ta, loss: loss})
		net.hops[c.Q] = append(net.hops[c.Q], hop{to: c.P, d: d, ta: ta, loss: loss})
	}
	for _, hs := range net.hops {
		slices.SortFunc(hs, func(a, b hop) int { return cmp.Compare(a.to, b.to) })
	}
	return net, nil
}

// N returns the number of processors.
func (net *Network) N() int { return len(net.starts) }

// Starts returns a copy of the start-time vector.
func (net *Network) Starts() []float64 { return append([]float64(nil), net.starts...) }

// Neighbors returns p's neighbors. The slice is owned by the network.
func (net *Network) Neighbors(p model.ProcID) []int { return net.adj[p] }

// Links returns the canonical link set, sorted.
func (net *Network) Links() []Pair {
	links := []Pair{}
	for p, hs := range net.hops {
		for _, h := range hs {
			if h.pq {
				links = append(links, Pair{P: p, Q: h.to})
			}
		}
	}
	return links
}

// Delays returns the delay model of the canonical link {p,q}, or nil.
func (net *Network) Delays(p, q int) LinkDelays {
	if h := net.hop(p, q); h != nil {
		return h.d
	}
	return nil
}

// hop returns the link from -> to, or nil when there is none.
func (net *Network) hop(from, to int) *hop {
	if from < 0 || from >= len(net.hops) {
		return nil
	}
	hs := net.hops[from]
	i, ok := slices.BinarySearchFunc(hs, to, func(h hop, to int) int { return cmp.Compare(h.to, to) })
	if !ok {
		return nil
	}
	return &hs[i]
}

// sample draws a delay for a message over the hop sent at real time now.
// Time-aware link models receive the send time.
func (h *hop) sample(rng *rand.Rand, now float64) (float64, error) {
	var d float64
	switch {
	case h.ta != nil:
		d = h.ta.SampleAt(rng, now, h.pq)
	case h.pq:
		d = h.d.SamplePQ(rng)
	default:
		d = h.d.SampleQP(rng)
	}
	if math.IsNaN(d) || d < 0 || math.IsInf(d, 0) {
		return 0, fmt.Errorf("sim: sampler %v produced invalid delay %v", h.d, d)
	}
	return d, nil
}

// Protocol is the behavior of one processor. Implementations receive an Env
// bound to their processor; all interaction goes through it. One Protocol
// instance is created per processor (see ProtocolFactory), so instances may
// keep per-processor state.
type Protocol interface {
	// OnStart runs at the processor's start event (clock 0).
	OnStart(env *Env)
	// OnReceive runs when a message arrives.
	OnReceive(env *Env, from model.ProcID, payload any)
	// OnTimer runs when a timer set via env.SetTimer fires.
	OnTimer(env *Env, tag int)
}

// ProtocolFactory creates the protocol instance for processor p.
type ProtocolFactory func(p model.ProcID) Protocol

// Env is a processor's interface to the engine during a callback. It is
// valid only during the callback it is passed to: the engine reuses one
// Env for every event of a run, so a protocol must not keep it.
type Env struct {
	engine *engine
	self   int
	now    float64 // real time of the current event
}

// Self returns the processor id.
func (e *Env) Self() model.ProcID { return model.ProcID(e.self) }

// N returns the number of processors.
func (e *Env) N() int { return e.engine.net.N() }

// Clock returns the processor's clock reading at the current event.
func (e *Env) Clock() float64 { return e.now - e.engine.net.starts[e.self] }

// Neighbors returns the processor's neighbors.
func (e *Env) Neighbors() []int { return e.engine.net.adj[e.self] }

// Send transmits a message to a neighbor; the delay is drawn from the
// link's model. The payload travels with the message (any value; the
// engine never inspects it). Failures (no such link, invalid sampled
// delay, receipt before the receiver's start) abort the run even if the
// protocol ignores the returned error.
func (e *Env) Send(to model.ProcID, payload any) error {
	return e.send(to, payload, true)
}

// SendControl transmits a message exactly like Send — the same fault,
// loss and delay draws, the same delivery order, the same OnReceive —
// but leaves it out of the run's execution: neither its send nor its
// receipt is logged, and it takes no message ID. It is for protocol
// traffic whose timing the synchronization never reads (report and
// result floods), so the execution holds only the measurement messages.
func (e *Env) SendControl(to model.ProcID, payload any) error {
	return e.send(to, payload, false)
}

func (e *Env) send(to model.ProcID, payload any, logged bool) error {
	err := e.engine.send(e.self, int(to), payload, e.now, logged)
	if err != nil && e.engine.err == nil {
		e.engine.err = err
	}
	return err
}

// SetTimer schedules OnTimer(tag) at the given clock time, which must not
// be in the past.
func (e *Env) SetTimer(atClock float64, tag int) error {
	at := e.engine.net.starts[e.self] + atClock
	if at < e.now {
		err := fmt.Errorf("sim: p%d set timer for clock %v in the past", e.self, atClock)
		if e.engine.err == nil {
			e.engine.err = err
		}
		return err
	}
	e.engine.push(at, event{kind: evTimer, proc: e.self, tag: tag})
	if e.engine.recordTimers {
		e.engine.timers = append(e.engine.timers, timerTrack{
			proc:   e.self,
			setAt:  e.Clock(),
			fireAt: atClock,
		})
	}
	return nil
}

// Event kinds inside the engine.
const (
	evStart = iota + 1
	evDeliver
	evTimer
)

// event is the body of a scheduled event. Bodies sit in the engine's slab;
// the heap orders pointer-free keys that index them.
type event struct {
	kind    int
	proc    int // processor the event happens at
	from    int // sender, for evDeliver
	payload any
	logged  bool          // evDeliver of a logged send (Send, not SendControl)
	send    model.SendRef // the logged send, when logged
	tag     int           // timer tag, for evTimer
}

// key orders one scheduled event: by time, then by seq, the FIFO
// tie-break that makes equal-time events deterministic. slot indexes the
// event's body.
type key struct {
	time float64
	seq  int64
	slot int32
}

func (a key) before(b key) bool {
	// Exact tie detection is the point: equal-time events must fall
	// through to the deterministic seq order, never epsilon-merge.
	if a.time != b.time { //clocklint:allow floateq
		return a.time < b.time
	}
	return a.seq < b.seq
}

// queue is a binary min-heap of event keys. Since (time, seq) is a total
// order, any correct heap pops the same sequence.
type queue []key

func (q *queue) push(k key) {
	h := append(*q, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	*q = h
}

func (q *queue) pop() key {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	*q = h
	return top
}

type engine struct {
	net     *Network
	rng     *rand.Rand
	queue   queue
	events  []event // slab of event bodies, indexed by key.slot
	free    []int32 // free slots of events
	seq     int64
	env     Env // the one Env of the run, rebound per event
	procs   []Protocol
	builder *model.Builder
	horizon float64
	sent    int
	err     error

	faults  *Faults
	crashAt []float64    // per-processor crash time, +Inf when never
	byz     []*Byzantine // per-processor Byzantine entry, nil when honest

	recordTimers bool
	timers       []timerTrack
}

// timerTrack mirrors one SetTimer call for optional history recording.
type timerTrack struct {
	proc   int
	setAt  float64
	fireAt float64
	fired  bool
}

// push schedules an event at real time at.
func (en *engine) push(at float64, ev event) {
	var slot int32
	if n := len(en.free); n > 0 {
		slot = en.free[n-1]
		en.free = en.free[:n-1]
		en.events[slot] = ev
	} else {
		slot = int32(len(en.events))
		en.events = append(en.events, ev)
	}
	en.queue.push(key{time: at, seq: en.seq, slot: slot})
	en.seq++
}

// pop removes the next event and frees its slot.
func (en *engine) pop() (float64, event) {
	k := en.queue.pop()
	ev := en.events[k.slot]
	en.events[k.slot] = event{} // drop the payload reference
	en.free = append(en.free, k.slot)
	return k.time, ev
}

// send transmits one message; logged records it in the builder.
func (en *engine) send(from, to int, payload any, now float64, logged bool) error {
	h := en.net.hop(from, to)
	mSent.Inc()
	// Byzantine senders lie in their payloads before any loss model sees
	// the message, so loss filters act on what actually travels.
	if b := en.byz[from]; b != nil && en.faults.Mutator != nil {
		if mutated, changed := en.faults.Mutator(*b, from, to, payload); changed {
			payload = mutated
			mMutated.Inc()
		}
	}
	if en.faults.linkDown(from, to, now) {
		en.sent++
		mDropPartition.Inc()
		if simLog.Enabled(context.Background(), slog.LevelDebug) {
			simLog.Debug("message dropped: link partitioned", "from", from, "to", to, "at", now)
		}
		return nil // link partitioned: sent into the void
	}
	if en.faults != nil && en.faults.Loss > 0 &&
		(en.faults.LossFilter == nil || en.faults.LossFilter(payload)) &&
		en.rng.Float64() < en.faults.Loss {
		en.sent++
		mDropInjected.Inc()
		if simLog.Enabled(context.Background(), slog.LevelDebug) {
			simLog.Debug("message dropped: injected loss", "from", from, "to", to, "at", now)
		}
		return nil // injected per-message loss
	}
	if h != nil && h.loss != nil && h.loss.MaybeLose(en.rng, now, h.pq) {
		en.sent++
		mDropLink.Inc()
		if simLog.Enabled(context.Background(), slog.LevelDebug) {
			simLog.Debug("message dropped: link loss model", "from", from, "to", to, "at", now)
		}
		return nil // lost in transit: sent but never delivered
	}
	if h == nil {
		return fmt.Errorf("sim: no link between %d and %d", from, to)
	}
	d, err := h.sample(en.rng, now)
	if err != nil {
		return err
	}
	arrive := now + d
	if arrive < en.net.starts[to] {
		return fmt.Errorf("sim: message p%d->p%d arrives at real %v before receiver start %v; increase protocol warmup",
			from, to, arrive, en.net.starts[to])
	}
	ev := event{kind: evDeliver, proc: to, from: from, payload: payload, logged: logged}
	if logged {
		ref, err := en.builder.Send(model.ProcID(from), model.ProcID(to), now-en.net.starts[from])
		if err != nil {
			return err
		}
		ev.send = ref
	}
	en.push(arrive, ev)
	en.sent++
	return nil
}

// RunConfig parameterizes a simulation run.
type RunConfig struct {
	// Seed drives all randomness deterministically.
	Seed int64
	// Horizon is the real time after which pending events are discarded
	// (undelivered messages are simply in flight). Zero means run to
	// quiescence.
	Horizon float64
	// MaxEvents caps the number of processed events as a runaway guard.
	// Zero means a generous default.
	MaxEvents int
	// RecordTimers includes timer-set and timer events in the resulting
	// execution's histories (full Section 2.1 fidelity). Off by default:
	// synchronization needs only the message events.
	RecordTimers bool
	// Faults optionally injects crashes, partitions and per-message loss.
	// Nil injects nothing.
	Faults *Faults
	// Trace, when non-nil, records one "sim.run" span covering the
	// simulated time from the first to the last processed event (parented
	// under obs.RootSpanID, so it nests into a protocol's round trace).
	// Nil records nothing.
	Trace *obs.Trace
}

// Run simulates the protocol on the network and returns the resulting
// formal execution: every logged message (Env.Send) and, with
// RecordTimers, the timers. Control messages (Env.SendControl) are
// delivered but not part of it.
func Run(net *Network, factory ProtocolFactory, cfg RunConfig) (*model.Execution, error) {
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 1 << 22
	}
	if err := cfg.Faults.Validate(net.N()); err != nil {
		return nil, err
	}
	en := &engine{
		net:          net,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		builder:      model.NewBuilder(net.starts),
		horizon:      cfg.Horizon,
		recordTimers: cfg.RecordTimers,
		faults:       cfg.Faults,
		crashAt:      cfg.Faults.crashTimes(net.N()),
		byz:          cfg.Faults.byzantineOf(net.N()),
	}
	en.procs = make([]Protocol, net.N())
	for p := range en.procs {
		en.procs[p] = factory(model.ProcID(p))
		if en.procs[p] == nil {
			return nil, fmt.Errorf("sim: factory returned nil protocol for p%d", p)
		}
	}
	en.env.engine = en
	for p, s := range net.starts {
		en.push(s, event{kind: evStart, proc: p})
	}
	mRuns.Inc()
	simLog.Debug("run starting", "n", net.N(), "seed", cfg.Seed,
		"horizon", cfg.Horizon, "faults", cfg.Faults != nil)

	processed := 0
	firstEvent, lastEvent := 0.0, 0.0
	for len(en.queue) > 0 {
		at, ev := en.pop()
		if cfg.Horizon > 0 && at > cfg.Horizon {
			continue // past the horizon: discard
		}
		if at >= en.crashAt[ev.proc] {
			mEventsCrashed.Inc()
			continue // crashed: no receives, no timers, no start
		}
		processed++
		mEvents.Inc()
		if processed == 1 || at < firstEvent {
			firstEvent = at
		}
		if at > lastEvent {
			lastEvent = at
		}
		if processed > maxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events; runaway protocol?", maxEvents)
		}
		env := &en.env
		env.self, env.now = ev.proc, at
		switch ev.kind {
		case evStart:
			en.procs[ev.proc].OnStart(env)
		case evDeliver:
			mDelivered.Inc()
			if ev.logged {
				if _, err := en.builder.Deliver(ev.send, at-net.starts[ev.proc]); err != nil {
					return nil, err
				}
			}
			en.procs[ev.proc].OnReceive(env, model.ProcID(ev.from), ev.payload)
		case evTimer:
			mTimersFired.Inc()
			if en.recordTimers {
				en.markTimerFired(ev.proc, at-net.starts[ev.proc])
			}
			en.procs[ev.proc].OnTimer(env, ev.tag)
		}
		if en.err != nil {
			return nil, en.err
		}
	}
	simLog.Debug("run finished", "events", processed, "sent", en.sent)
	// Span from the first to the last processed event. Proc -1 is the
	// global axis, which has no start offset, so the span's clock
	// coordinate coincides with the absolute event time.
	//clocklint:allow timedomain global axis: clock == real time for proc -1
	cfg.Trace.AddSimChild("sim.run", -1, 0, firstEvent, lastEvent-firstEvent, obs.RootSpanID)
	for _, tr := range en.timers {
		if err := en.builder.AddTimer(model.ProcID(tr.proc), tr.setAt, tr.fireAt, tr.fired); err != nil {
			return nil, err
		}
	}
	return en.builder.Build()
}

// markTimerFired flags the earliest-set unfired timer of proc scheduled
// for the given clock time.
func (en *engine) markTimerFired(proc int, fireAt float64) {
	for i := range en.timers {
		tr := &en.timers[i]
		if !tr.fired && tr.proc == proc && math.Abs(tr.fireAt-fireAt) < 1e-12 {
			tr.fired = true
			return
		}
	}
}
