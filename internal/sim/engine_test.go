package sim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// runBurst is a helper: ring network with uniform delays, burst protocol.
func runBurst(t *testing.T, n int, starts []float64, lo, hi float64, k int, seed int64) *model.Execution {
	t.Helper()
	net, err := NewNetwork(starts, Ring(n), func(Pair) LinkDelays {
		return Symmetric(Uniform{Lo: lo, Hi: hi})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	e, err := Run(net, NewBurstFactory(k, 0.01, SafeWarmup(starts)+1), RunConfig{Seed: seed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork([]float64{0, 0}, []Pair{{0, 2}}, func(Pair) LinkDelays { return Symmetric(Constant{D: 1}) }); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := NewNetwork([]float64{0, 0}, []Pair{{0, 1}}, func(Pair) LinkDelays { return nil }); err == nil {
		t.Error("nil delay model accepted")
	}
}

func TestNetworkAccessors(t *testing.T) {
	starts := []float64{0, 1, 2}
	net, err := NewNetwork(starts, []Pair{{1, 0}, {1, 2}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 1})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if net.N() != 3 {
		t.Errorf("N = %d, want 3", net.N())
	}
	links := net.Links()
	if len(links) != 2 || links[0] != (Pair{0, 1}) || links[1] != (Pair{1, 2}) {
		t.Errorf("Links = %v, want canonical sorted [{0 1} {1 2}]", links)
	}
	if net.Delays(1, 0) == nil || net.Delays(0, 2) != nil {
		t.Error("Delays lookup wrong")
	}
	s := net.Starts()
	s[0] = 99
	if net.starts[0] == 99 {
		t.Error("Starts exposes internal slice")
	}
}

func TestRunBurstProducesExpectedTraffic(t *testing.T) {
	const n, k = 4, 3
	starts := []float64{0, 0.5, 1.2, 0.3}
	e := runBurst(t, n, starts, 0.1, 0.2, k, 7)
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	// Ring of 4: each processor has 2 neighbors, sends k bursts to each:
	// 4 * 2 * 3 = 24 messages.
	if len(msgs) != 24 {
		t.Errorf("messages = %d, want 24", len(msgs))
	}
	// All true delays within the sampler support.
	for _, m := range msgs {
		d := m.Delay(e)
		if d < 0.1-1e-12 || d > 0.2+1e-12 {
			t.Errorf("message %d delay %v outside [0.1,0.2]", m.ID, d)
		}
	}
	// Execution must be internally consistent.
	if err := e.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	starts := []float64{0, 0.4, 0.9}
	e1 := runBurst(t, 3, starts, 0.05, 0.3, 4, 1234)
	e2 := runBurst(t, 3, starts, 0.05, 0.3, 4, 1234)
	m1, err := e1.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	m2, err := e2.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("message counts differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("message %d differs: %+v vs %+v", i, m1[i], m2[i])
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	starts := []float64{0, 0.4, 0.9}
	e1 := runBurst(t, 3, starts, 0.05, 0.3, 4, 1)
	e2 := runBurst(t, 3, starts, 0.05, 0.3, 4, 2)
	m1, _ := e1.Messages()
	m2, _ := e2.Messages()
	same := true
	for i := range m1 {
		if m1[i] != m2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical executions")
	}
}

func TestRunWarmupTooSmall(t *testing.T) {
	starts := []float64{0, 100}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.1})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	_, err = Run(net, NewBurstFactory(1, 0, 0), RunConfig{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("error = %v, want warmup complaint", err)
	}
}

func TestRunHorizonDropsLateEvents(t *testing.T) {
	starts := []float64{0, 0}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 10})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	// Messages sent at clock 1 arrive at 11 > horizon 5: in flight forever.
	e, err := Run(net, NewBurstFactory(1, 0, 1), RunConfig{Seed: 1, Horizon: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	if len(msgs) != 0 {
		t.Errorf("delivered = %d, want 0", len(msgs))
	}
}

func TestRunMaxEventsGuard(t *testing.T) {
	// A protocol that ping-pongs forever trips the event cap.
	starts := []float64{0, 0}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.1})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	factory := func(p model.ProcID) Protocol { return infiniteEcho{} }
	if _, err := Run(net, factory, RunConfig{Seed: 1, MaxEvents: 100}); err == nil {
		t.Error("runaway protocol not stopped")
	}
}

type infiniteEcho struct{}

func (infiniteEcho) OnStart(env *Env) {
	if int(env.Self()) == 0 {
		_ = env.Send(1, 0)
	}
}
func (infiniteEcho) OnReceive(env *Env, from model.ProcID, _ any) { _ = env.Send(from, 0) }
func (infiniteEcho) OnTimer(*Env, int)                            {}

func TestPeriodicProtocol(t *testing.T) {
	starts := []float64{0, 0.2}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.05})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	const count = 5
	e, err := Run(net, NewPeriodicFactory(1, count, SafeWarmup(starts)+0.5), RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	if want := 2 * count; len(msgs) != want {
		t.Errorf("messages = %d, want %d", len(msgs), want)
	}
}

func TestPingPongProtocol(t *testing.T) {
	starts := []float64{0, 0.1}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Uniform{Lo: 0.01, Hi: 0.02})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	const rounds = 3
	e, err := Run(net, NewPingPongFactory(rounds, SafeWarmup(starts)+0.5), RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	// Each round is one ping + one pong.
	if want := 2 * rounds; len(msgs) != want {
		t.Errorf("messages = %d, want %d", len(msgs), want)
	}
	// Both directions saw traffic.
	tab, err := trace.Collect(e, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if tab.Stats(0, 1).Count != rounds || tab.Stats(1, 0).Count != rounds {
		t.Errorf("per-direction counts = %d/%d, want %d/%d",
			tab.Stats(0, 1).Count, tab.Stats(1, 0).Count, rounds, rounds)
	}
}

func TestBiasWindowLinkInSimulation(t *testing.T) {
	starts := []float64{0, 0.3}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return BiasWindow{Base: 1, Width: 0.2}
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	e, err := Run(net, NewBurstFactory(10, 0.01, SafeWarmup(starts)+0.5), RunConfig{Seed: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range msgs {
		d := m.Delay(e)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if hi-lo > 0.2 {
		t.Errorf("bias window violated: spread %v > 0.2", hi-lo)
	}
}

func TestSafeWarmupAndUniformStarts(t *testing.T) {
	if got := SafeWarmup(nil); got != 0 {
		t.Errorf("SafeWarmup(nil) = %v, want 0", got)
	}
	if got := SafeWarmup([]float64{3, 1, 7}); got != 6 {
		t.Errorf("SafeWarmup = %v, want 6", got)
	}
	rng := rand.New(rand.NewSource(1))
	starts := UniformStarts(rng, 10, 5)
	if len(starts) != 10 {
		t.Fatalf("len = %d", len(starts))
	}
	for _, s := range starts {
		if s < 0 || s >= 5 {
			t.Errorf("start %v outside [0,5)", s)
		}
	}
}

func TestTimerInPast(t *testing.T) {
	starts := []float64{0, 0}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 1})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	factory := func(p model.ProcID) Protocol { return badTimer{} }
	if _, err := Run(net, factory, RunConfig{Seed: 1}); err == nil {
		t.Error("timer in the past accepted")
	}
}

type badTimer struct{}

func (badTimer) OnStart(env *Env)                  { _ = env.SetTimer(-5, 0) }
func (badTimer) OnReceive(*Env, model.ProcID, any) {}
func (badTimer) OnTimer(*Env, int)                 {}

// TestRecordTimers: with RecordTimers on, the execution's histories carry
// timer-set and timer events satisfying Section 2.1's timer condition,
// and the trace pipeline is unaffected.
func TestRecordTimers(t *testing.T) {
	starts := []float64{0, 0.3}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.05})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	exec, err := Run(net, NewBurstFactory(3, 0.1, SafeWarmup(starts)+0.5), RunConfig{Seed: 2, RecordTimers: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := exec.ValidateTimers(); err != nil {
		t.Errorf("ValidateTimers: %v", err)
	}
	setCount, fireCount := 0, 0
	for _, h := range exec.Histories {
		for _, st := range h.Steps {
			switch st.Event.Kind {
			case model.KindTimerSet:
				setCount++
			case model.KindTimer:
				fireCount++
			}
		}
	}
	// Burst with K=3 sets 3 timers per processor; all fire to quiescence.
	if setCount != 6 || fireCount != 6 {
		t.Errorf("timer events = %d set / %d fired, want 6/6", setCount, fireCount)
	}
	// Shifting preserves views including timer events.
	sh, err := exec.Shift([]float64{0.1, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equivalent(exec, sh) {
		t.Error("shifted execution with timers not equivalent")
	}
	// Trace collection ignores timers gracefully.
	tab, err := trace.Collect(exec, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if tab.Stats(0, 1).Count != 3 {
		t.Errorf("trace count = %d, want 3", tab.Stats(0, 1).Count)
	}
}

// TestRecordTimersHorizonLeavesUnfired: timers beyond the horizon are
// recorded as set-but-unfired, which the validator permits.
func TestRecordTimersHorizonLeavesUnfired(t *testing.T) {
	starts := []float64{0, 0}
	net, err := NewNetwork(starts, []Pair{{0, 1}}, func(Pair) LinkDelays {
		return Symmetric(Constant{D: 0.05})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	// Periodic with long period: later timers land beyond the horizon.
	exec, err := Run(net, NewPeriodicFactory(10, 5, 0.5), RunConfig{Seed: 2, Horizon: 5, RecordTimers: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := exec.ValidateTimers(); err != nil {
		t.Errorf("ValidateTimers: %v", err)
	}
	unfired := 0
	for _, h := range exec.Histories {
		sets, fires := 0, 0
		for _, st := range h.Steps {
			switch st.Event.Kind {
			case model.KindTimerSet:
				sets++
			case model.KindTimer:
				fires++
			}
		}
		unfired += sets - fires
	}
	if unfired == 0 {
		t.Error("expected some set-but-unfired timers past the horizon")
	}
}

// TestRunAllocs bounds the engine's allocations on a fixed Burst run: at
// most one per sent message (the protocol boxes each payload, a float64
// clock reading, into an interface) plus O(n) for the protocols, the
// per-processor logs and the slab and heap growth. An engine that
// allocates per event (a boxed heap entry, a fresh Env) cannot meet it.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, k = 8, 25
	starts := make([]float64, n)
	for p := range starts {
		starts[p] = float64(p) / 10
	}
	net, err := NewNetwork(starts, Complete(n), func(Pair) LinkDelays {
		return Symmetric(Uniform{Lo: 0.01, Hi: 0.2})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	factory := NewBurstFactory(k, 0.01, SafeWarmup(starts))
	sent := 0
	allocs := testing.AllocsPerRun(5, func() {
		e, err := Run(net, factory, RunConfig{Seed: 1})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		sent = 0
		for _, h := range e.Histories {
			for _, st := range h.Steps {
				if st.Event.Kind == model.KindSend {
					sent++
				}
			}
		}
	})
	if want := n * k * (n - 1); sent != want {
		t.Fatalf("sent %d messages, want %d", sent, want)
	}
	if limit := float64(sent + 16*n + 64); allocs > limit {
		t.Errorf("Run made %.0f allocations for %d messages on %d processors, want at most %.0f", allocs, sent, n, limit)
	}
	t.Logf("%.0f allocations, %d messages", allocs, sent)
}

// mixProto sends k rounds of numbered messages to every neighbor and
// answers each first-round message once; a payload travels through
// SendControl when control(payload) holds, through Send otherwise. Every
// receipt is logged.
type mixProto struct {
	k, sent int
	warmup  float64
	control func(payload int) bool
	got     *[]receipt
}

type receipt struct {
	clock    float64
	to, from model.ProcID
	payload  int
}

// mixPayload encodes the sender, the round and the receiver; replies set
// bit 30.
func mixPayload(from model.ProcID, round, to int) int { return int(from)<<16 | round<<8 | to }

func (m *mixProto) send(env *Env, to model.ProcID, payload int) {
	m.sent++
	if m.control(payload) {
		_ = env.SendControl(to, payload)
	} else {
		_ = env.Send(to, payload)
	}
}

func (m *mixProto) OnStart(env *Env) {
	for r := 0; r < m.k; r++ {
		_ = env.SetTimer(m.warmup+0.01*float64(r), r)
	}
}

func (m *mixProto) OnTimer(env *Env, round int) {
	for _, q := range env.Neighbors() {
		m.send(env, model.ProcID(q), mixPayload(env.Self(), round, q))
	}
}

func (m *mixProto) OnReceive(env *Env, from model.ProcID, payload any) {
	v := payload.(int)
	*m.got = append(*m.got, receipt{clock: env.Clock(), to: env.Self(), from: from, payload: v})
	if v&(1<<30) == 0 && (v>>8)&0xff == 0 {
		m.send(env, from, v|1<<30)
	}
}

// TestSendControl: a control message is delivered exactly like a logged
// one, through the same loss, partition and delay draws and in the same
// event order, to OnReceive with its sender and payload, but it is never
// part of the execution; the logged messages keep dense IDs in delivery
// order.
func TestSendControl(t *testing.T) {
	const n, k = 6, 5
	starts := UniformStarts(rand.New(rand.NewSource(4)), n, 0.5)
	net, err := NewNetwork(starts, Complete(n), func(Pair) LinkDelays {
		return Symmetric(Uniform{Lo: 0.01, Hi: 0.2})
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	faults := &Faults{Loss: 0.2, Partitions: []Partition{{P: 0, Q: 1, From: 0, Until: math.Inf(1)}}}
	run := func(control func(int) bool) ([]receipt, int, *model.Execution) {
		var got []receipt
		sent := 0
		protos := make([]*mixProto, n)
		e, err := Run(net, func(p model.ProcID) Protocol {
			protos[p] = &mixProto{k: k, warmup: SafeWarmup(starts), control: control, got: &got}
			return protos[p]
		}, RunConfig{Seed: 8, Faults: faults})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, pr := range protos {
			sent += pr.sent
		}
		return got, sent, e
	}
	odd := func(v int) bool { return v%2 == 1 }
	logged, sent, loggedExec := run(func(int) bool { return false })
	control, _, controlExec := run(func(int) bool { return true })
	mixed, _, mixedExec := run(odd)

	if !slices.Equal(control, logged) || !slices.Equal(mixed, logged) {
		t.Fatal("control sends changed the deliveries: RNG draws or event order differ from logged sends")
	}
	if len(logged) == 0 || len(logged) >= sent {
		t.Fatalf("%d of %d messages delivered: want loss to drop some", len(logged), sent)
	}
	for _, r := range logged {
		sender, receiver := model.ProcID(r.payload>>16&0xff), model.ProcID(r.payload&0xff)
		if r.payload&(1<<30) != 0 {
			sender, receiver = receiver, sender // a reply
		}
		if r.from != sender || r.to != receiver {
			t.Fatalf("receipt %+v: want sender p%d and receiver p%d", r, sender, receiver)
		}
		if min(r.from, r.to) == 0 && max(r.from, r.to) == 1 {
			t.Fatalf("receipt %+v crossed the partitioned link {0,1}", r)
		}
	}

	for name, tc := range map[string]struct {
		e      *model.Execution
		logged func(int) bool
	}{
		"logged":  {loggedExec, func(int) bool { return true }},
		"control": {controlExec, func(int) bool { return false }},
		"mixed":   {mixedExec, func(v int) bool { return !odd(v) }},
	} {
		var want []receipt
		for _, r := range logged {
			if tc.logged(r.payload) {
				want = append(want, r)
			}
		}
		msgs, err := tc.e.Messages()
		if err != nil {
			t.Fatalf("%s: Messages: %v", name, err)
		}
		if len(msgs) != len(want) || stepCount(tc.e, model.KindSend) != len(want) {
			t.Fatalf("%s: execution holds %d messages (%d sends), want the %d logged deliveries",
				name, len(msgs), stepCount(tc.e, model.KindSend), len(want))
		}
		for i, m := range msgs {
			w := want[i]
			if m.ID != model.MsgID(i+1) || m.From != w.from || m.To != w.to || m.RecvClock != w.clock { //clocklint:allow floateq
				t.Fatalf("%s: message %d = %+v, want ID %d for delivery %+v", name, i, m, i+1, w)
			}
		}
	}
}

func stepCount(e *model.Execution, k model.Kind) int {
	c := 0
	for _, h := range e.Histories {
		for _, st := range h.Steps {
			if st.Event.Kind == k {
				c++
			}
		}
	}
	return c
}
