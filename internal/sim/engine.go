package sim

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

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
	adj    [][]int   // neighbors in link order
	hops   [][]hop   // per sender, sorted by receiver
	to     [][]int32 // per sender, hops[from][i].to, the search keys of hop
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
	net.to = make([][]int32, n)
	for p, hs := range net.hops {
		slices.SortFunc(hs, func(a, b hop) int { return cmp.Compare(a.to, b.to) })
		net.to[p] = make([]int32, len(hs))
		for i, h := range hs {
			net.to[p][i] = int32(h.to)
		}
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
	n := len(net.hops)
	if from < 0 || from >= n || to < 0 || to >= n {
		return nil
	}
	// Search the receivers alone, 4 bytes a probe instead of a whole hop.
	i, ok := slices.BinarySearch(net.to[from], int32(to))
	if !ok {
		return nil
	}
	return &net.hops[from][i]
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
	en := e.engine
	at := en.net.starts[e.self] + atClock
	if at < e.now {
		err := fmt.Errorf("sim: p%d set timer for clock %v in the past", e.self, atClock)
		if en.err == nil {
			en.err = err
		}
		return err
	}
	ev := event{kind: evTimer, proc: e.self, tag: tag}
	if en.recordTimers {
		ev.from = len(en.timers) // the track this timer's firing marks
	}
	if err := en.push(at, &ev); err != nil {
		return err
	}
	if en.recordTimers {
		en.timers = append(en.timers, timerTrack{
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

// event is the body of a scheduled event. Bodies sit in the run's slab;
// the queue holds the int32 slots that index them.
type event struct {
	at      float64 // real time of the event
	seq     int64   // push order: the FIFO tie-break among equal times
	kind    int
	proc    int // processor the event happens at
	from    int // sender, for evDeliver; the timers index, for a recorded evTimer
	payload any
	logged  bool          // evDeliver of a logged send (Send, not SendControl)
	send    model.SendRef // the logged send, when logged
	tag     int           // timer tag, for evTimer
}

// order maps a time to a key whose unsigned order is the time's order:
// the IEEE bits with the sign bit flipped for non-negative times and every
// bit flipped for negative ones. -0 is folded into +0 first, so equal
// times get equal keys and fall through to the seq tie-break.
func order(t float64) uint64 {
	if t == 0 { //clocklint:allow floateq -0 and +0 must share a key
		t = 0
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// scratch is a run's event storage: the slab of event bodies, its free
// slots and the queue over them. Runs take one from scratchPool and put
// it back empty, so each run reuses the capacity earlier runs grew.
//
// The queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan
// 1990). It relies on the engine's contract that no event is scheduled
// before the last popped one: messages arrive at now+d with d >= 0 and
// SetTimer refuses the past. Every queued key is then >= last, the key
// of the last popped event, and a slot sits in bucket b = bits.Len64(key
// ^ last): bucket 0 (ready) holds the keys equal to last, bucket b > 0
// those whose highest bit differing from last is bit b-1. Since (time,
// seq) is a total order, the queue pops exactly the sequence any correct
// priority queue on (time, seq) pops.
type scratch struct {
	events []event
	free   slots // free slots of events

	last    uint64
	mask    uint64    // bit b-1 set when bucket b > 0 is non-empty
	ready   slots     // bucket 0 in seq order, from head on
	head    int       // next entry of ready to pop
	buckets [64]slots // buckets[b-1] is bucket b
	size    int       // queued events
}

// slots is a list of event slots that keeps its length apart from its
// backing array: adding and removing entries then stores no pointer, and
// so takes no GC write barrier, once the array has grown.
type slots struct {
	buf []int32 // buf[:n] is the list; buf[n:] is spare
	n   int
}

func (l *slots) add(slot int32) {
	if l.n < len(l.buf) {
		l.buf[l.n] = slot
	} else {
		l.buf = append(l.buf, slot)
	}
	l.n++
}

func (l *slots) list() []int32 { return l.buf[:l.n] }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release empties s, dropping every payload it still holds, and returns
// it to the pool.
func (s *scratch) release() {
	clear(s.events)
	s.events = s.events[:0]
	s.free.n, s.ready.n = 0, 0
	for b := range s.buckets {
		s.buckets[b].n = 0
	}
	s.last, s.mask, s.head, s.size = 0, 0, 0, 0
	scratchPool.Put(s)
}

// push queues an event at real time at. A time whose key is below the
// last popped one breaks the monotone contract the queue relies on; the
// push is refused rather than misordered.
func (s *scratch) push(at float64, seq int64, ev *event) error {
	k := order(at)
	if k < s.last {
		return fmt.Errorf("sim: internal error: event at real %v queued after a later one was processed", at)
	}
	var slot int32
	if s.free.n > 0 {
		s.free.n--
		slot = s.free.buf[s.free.n]
		s.events[slot] = *ev
	} else {
		slot = int32(len(s.events))
		s.events = append(s.events, *ev)
	}
	s.events[slot].at, s.events[slot].seq = at, seq
	s.place(slot, k)
	s.size++
	return nil
}

// place files a slot with key k into its bucket against the current last.
func (s *scratch) place(slot int32, k uint64) {
	b := bits.Len64(k ^ s.last)
	if b == 0 {
		s.ready.add(slot)
		return
	}
	s.buckets[b-1].add(slot)
	s.mask |= 1 << (b - 1)
}

// pop removes the next event in (time, seq) order and frees its slot. It
// returns the event's body, valid until the next push, and its payload,
// whose reference the slab drops. The queue must not be empty.
func (s *scratch) pop() (*event, any) {
	if s.head == s.ready.n {
		s.refill()
	}
	slot := s.ready.buf[s.head]
	if s.head++; s.head == s.ready.n {
		s.ready.n, s.head = 0, 0
	}
	ev := &s.events[slot]
	payload := ev.payload
	ev.payload = nil
	s.free.add(slot)
	s.size--
	return ev, payload
}

// refill, with ready empty, makes the smallest key of the lowest
// non-empty bucket the new last and files that bucket's slots again
// against it. Each lands in a lower bucket (they agree with the new last
// above the bucket's bit), the minimum's into ready, which is then sorted
// by seq: later pushes at the same key carry larger seqs and append.
func (s *scratch) refill() {
	i := bits.TrailingZeros64(s.mask)
	b := s.buckets[i].list()
	last := order(s.events[b[0]].at)
	for _, slot := range b[1:] {
		last = min(last, order(s.events[slot].at))
	}
	s.last = last
	for _, slot := range b {
		s.place(slot, order(s.events[slot].at))
	}
	s.buckets[i].n = 0
	s.mask &^= 1 << i
	if s.ready.n > 1 {
		events := s.events
		slices.SortFunc(s.ready.list(), func(a, b int32) int { return cmp.Compare(events[a].seq, events[b].seq) })
	}
}

type engine struct {
	net     *Network
	rng     *rand.Rand
	s       *scratch // event slab and queue, from scratchPool
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

// push schedules an event at real time at; a refused push aborts the run.
func (en *engine) push(at float64, ev *event) error {
	err := en.s.push(at, en.seq, ev)
	en.seq++
	if err != nil && en.err == nil {
		en.err = err
	}
	return err
}

// send transmits one message; logged records it in the builder.
func (en *engine) send(from, to int, payload any, now float64, logged bool) error {
	// A missing link is a protocol bug, not a fault to inject: it aborts
	// the run before any mutator, partition or loss draw could hide it.
	h := en.net.hop(from, to)
	if h == nil {
		return fmt.Errorf("sim: no link between %d and %d", from, to)
	}
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
	if h.loss != nil && h.loss.MaybeLose(en.rng, now, h.pq) {
		en.sent++
		mDropLink.Inc()
		if simLog.Enabled(context.Background(), slog.LevelDebug) {
			simLog.Debug("message dropped: link loss model", "from", from, "to", to, "at", now)
		}
		return nil // lost in transit: sent but never delivered
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
	if err := en.push(arrive, &ev); err != nil {
		return err
	}
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
		s:            scratchPool.Get().(*scratch),
		builder:      model.NewBuilder(net.starts),
		horizon:      cfg.Horizon,
		recordTimers: cfg.RecordTimers,
		faults:       cfg.Faults,
		crashAt:      cfg.Faults.crashTimes(net.N()),
		byz:          cfg.Faults.byzantineOf(net.N()),
	}
	defer en.s.release()
	en.procs = make([]Protocol, net.N())
	for p := range en.procs {
		en.procs[p] = factory(model.ProcID(p))
		if en.procs[p] == nil {
			return nil, fmt.Errorf("sim: factory returned nil protocol for p%d", p)
		}
	}
	en.env.engine = en
	for p, s := range net.starts {
		if err := en.push(s, &event{kind: evStart, proc: p}); err != nil {
			return nil, err
		}
	}
	mRuns.Inc()
	simLog.Debug("run starting", "n", net.N(), "seed", cfg.Seed,
		"horizon", cfg.Horizon, "faults", cfg.Faults != nil)

	processed := 0
	firstEvent, lastEvent := 0.0, 0.0
	for en.s.size > 0 {
		ev, payload := en.s.pop()
		at := ev.at
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
			en.procs[ev.proc].OnReceive(env, model.ProcID(ev.from), payload)
		case evTimer:
			mTimersFired.Inc()
			if en.recordTimers {
				en.timers[ev.from].fired = true
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
