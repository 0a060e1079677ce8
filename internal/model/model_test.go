package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Execution {
	t.Helper()
	e, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return e
}

// twoProcExec builds the canonical 2-processor execution used across tests:
// p0 starts at s0, p1 at s1, one message each way with the given real
// delays, both sent once both processors have started (so receipt cannot
// precede the receiver's start, which would be inadmissible).
func twoProcExec(t *testing.T, s0, s1, d01, d10 float64) *Execution {
	t.Helper()
	b := NewBuilder([]float64{s0, s1})
	sendAt := math.Max(s0, s1) + 1
	if _, err := b.AddMessageDelay(0, 1, sendAt, d01); err != nil {
		t.Fatalf("AddMessageDelay: %v", err)
	}
	if _, err := b.AddMessageDelay(1, 0, sendAt, d10); err != nil {
		t.Fatalf("AddMessageDelay: %v", err)
	}
	return mustBuild(t, b)
}

func TestHistoryValidate(t *testing.T) {
	tests := []struct {
		name    string
		hist    History
		wantErr bool
	}{
		{
			name: "valid",
			hist: History{Steps: []Step{
				{Clock: 0, Event: Event{Kind: KindStart}},
				{Clock: 2, Event: Event{Kind: KindSend, Peer: 1, Msg: 1}},
			}},
		},
		{
			name:    "empty",
			hist:    History{},
			wantErr: true,
		},
		{
			name: "missing start",
			hist: History{Steps: []Step{
				{Clock: 0, Event: Event{Kind: KindSend, Peer: 1, Msg: 1}},
			}},
			wantErr: true,
		},
		{
			name: "start not at clock zero",
			hist: History{Steps: []Step{
				{Clock: 1, Event: Event{Kind: KindStart}},
			}},
			wantErr: true,
		},
		{
			name: "second start",
			hist: History{Steps: []Step{
				{Clock: 0, Event: Event{Kind: KindStart}},
				{Clock: 1, Event: Event{Kind: KindStart}},
			}},
			wantErr: true,
		},
		{
			name: "out of order",
			hist: History{Steps: []Step{
				{Clock: 0, Event: Event{Kind: KindStart}},
				{Clock: 2, Event: Event{Kind: KindSend, Msg: 1}},
				{Clock: 1, Event: Event{Kind: KindSend, Msg: 2}},
			}},
			wantErr: true,
		},
		{
			name: "nan clock",
			hist: History{Steps: []Step{
				{Clock: 0, Event: Event{Kind: KindStart}},
				{Clock: math.NaN(), Event: Event{Kind: KindSend, Msg: 1}},
			}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.hist.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestShiftLemma41 checks Lemma 4.1: shift(pi, s) is a history of p with
// start time S - s and an unchanged view.
func TestShiftLemma41(t *testing.T) {
	e := twoProcExec(t, 10, 20, 0.5, 0.7)
	h := e.Histories[0]
	for _, s := range []float64{0, 1.5, -3, 100} {
		sh := h.Shift(s)
		if sh.Start != h.Start-s {
			t.Errorf("Shift(%v).Start = %v, want %v", s, sh.Start, h.Start-s)
		}
		if err := sh.Validate(); err != nil {
			t.Errorf("Shift(%v) not a valid history: %v", s, err)
		}
		if !sh.View().Equal(h.View()) {
			t.Errorf("Shift(%v) changed the view", s)
		}
	}
}

// TestShiftEquivalence checks that shifted executions are equivalent to the
// original (Section 4.1) and that shift composes additively.
func TestShiftEquivalence(t *testing.T) {
	e := twoProcExec(t, 0, 5, 1, 2)
	sh, err := e.Shift([]float64{2, -1})
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	if !Equivalent(e, sh) {
		t.Error("shifted execution not equivalent to original")
	}
	if got := sh.Histories[0].Start; got != -2 {
		t.Errorf("p0 start = %v, want -2", got)
	}
	if got := sh.Histories[1].Start; got != 6 {
		t.Errorf("p1 start = %v, want 6", got)
	}
	sh2, err := sh.Shift([]float64{-2, 1})
	if err != nil {
		t.Fatalf("Shift back: %v", err)
	}
	for p := range e.Histories {
		if sh2.Histories[p].Start != e.Histories[p].Start {
			t.Errorf("p%d start after round trip = %v, want %v", p, sh2.Histories[p].Start, e.Histories[p].Start)
		}
	}
}

func TestShiftBadVector(t *testing.T) {
	e := twoProcExec(t, 0, 0, 1, 1)
	if _, err := e.Shift([]float64{1}); err == nil {
		t.Error("Shift(short vector) error = nil, want non-nil")
	}
}

// TestShiftDelayChange checks the delay arithmetic of Section 6: shifting q
// by s decreases delays into q by s and increases delays out of q by s.
func TestShiftDelayChange(t *testing.T) {
	e := twoProcExec(t, 3, 8, 1.0, 2.0)
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	const s = 0.25
	sh, err := e.Shift([]float64{0, s})
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	shMsgs, err := sh.Messages()
	if err != nil {
		t.Fatalf("Messages(shifted): %v", err)
	}
	for i, m := range msgs {
		d0 := m.Delay(e)
		d1 := shMsgs[i].Delay(sh)
		var want float64
		switch {
		case m.To == 1: // into q: receive happens s earlier
			want = d0 - s
		case m.From == 1: // out of q: send happens s earlier
			want = d0 + s
		default:
			want = d0
		}
		if math.Abs(d1-want) > 1e-12 {
			t.Errorf("msg %d (p%d->p%d): shifted delay = %v, want %v", m.ID, m.From, m.To, d1, want)
		}
	}
}

// TestEstimatedDelayLemma61 checks d~(m) = d(m) + S_p - S_q and that it is
// view-computable (invariant under shifts).
func TestEstimatedDelayLemma61(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s0, s1 := rng.Float64()*100-50, rng.Float64()*100-50
		d01, d10 := rng.Float64()*5, rng.Float64()*5
		e := twoProcExec(t, s0, s1, d01, d10)
		msgs, err := e.Messages()
		if err != nil {
			t.Fatalf("Messages: %v", err)
		}
		for _, m := range msgs {
			want := m.Delay(e) + e.Histories[m.From].Start - e.Histories[m.To].Start
			if got := m.EstimatedDelay(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: d~ = %v, want %v", trial, got, want)
			}
		}
		// Shift arbitrarily: estimated delays must be unchanged.
		sh, err := e.Shift([]float64{rng.Float64() * 10, rng.Float64() * 10})
		if err != nil {
			t.Fatalf("Shift: %v", err)
		}
		shMsgs, err := sh.Messages()
		if err != nil {
			t.Fatalf("Messages(shifted): %v", err)
		}
		for i := range msgs {
			if msgs[i].EstimatedDelay() != shMsgs[i].EstimatedDelay() {
				t.Fatalf("trial %d: estimated delay changed under shift", trial)
			}
		}
	}
}

func TestMessagesUndeliveredOK(t *testing.T) {
	e := NewExecution([]float64{0, 0})
	e.Histories[0].Steps = append(e.Histories[0].Steps,
		Step{Clock: 1, Event: Event{Kind: KindSend, Peer: 1, Msg: 7}})
	msgs, err := e.Messages()
	if err != nil {
		t.Fatalf("Messages: %v", err)
	}
	if len(msgs) != 0 {
		t.Errorf("len(msgs) = %d, want 0 (in-flight message)", len(msgs))
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder([]float64{0, 0})
	if _, err := b.AddMessage(0, 0, 1, 2); err == nil {
		t.Error("self message: error = nil, want non-nil")
	}
	if _, err := b.AddMessage(0, 5, 1, 2); err == nil {
		t.Error("receiver out of range: error = nil, want non-nil")
	}
	if _, err := b.AddMessage(-1, 0, 1, 2); err == nil {
		t.Error("sender out of range: error = nil, want non-nil")
	}
}

func TestBuilderOrdersSteps(t *testing.T) {
	b := NewBuilder([]float64{0, 0})
	// Add messages with decreasing send clocks; Build must sort.
	for i := 4; i >= 1; i-- {
		if _, err := b.AddMessage(0, 1, float64(i), float64(i)+0.5); err != nil {
			t.Fatalf("AddMessage: %v", err)
		}
	}
	e := mustBuild(t, b)
	steps := e.Histories[0].Steps
	for i := 1; i < len(steps); i++ {
		if i > 1 && steps[i].Clock < steps[i-1].Clock {
			t.Fatalf("steps not sorted: %v", steps)
		}
	}
}

// TestViewPropertyQuick: a shift by any finite vector preserves views and
// changes starts by exactly the shift (property-based, testing/quick).
func TestViewPropertyQuick(t *testing.T) {
	f := func(s0, s1 int8, shift0, shift1 int8) bool {
		e := twoProcExec(t, float64(s0), float64(s1), 1.5, 2.5)
		sh, err := e.Shift([]float64{float64(shift0), float64(shift1)})
		if err != nil {
			return false
		}
		return Equivalent(e, sh) &&
			sh.Histories[0].Start == float64(s0)-float64(shift0) &&
			sh.Histories[1].Start == float64(s1)-float64(shift1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindStart, "start"},
		{KindSend, "send"},
		{KindRecv, "recv"},
		{KindTimerSet, "timer-set"},
		{KindTimer, "timer"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestExecutionValidate(t *testing.T) {
	e := twoProcExec(t, 0, 0, 1, 1)
	if err := e.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestBuilderTimers(t *testing.T) {
	b := NewBuilder([]float64{0})
	if err := b.AddTimer(0, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTimer(0, 2, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTimer(0, 3, 1, true); err == nil {
		t.Error("timer for the past accepted")
	}
	if err := b.AddTimer(5, 1, 2, true); err == nil {
		t.Error("out-of-range processor accepted")
	}
	e, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := e.ValidateTimers(); err != nil {
		t.Errorf("ValidateTimers: %v", err)
	}
}

func TestValidateTimersCatchesViolations(t *testing.T) {
	// Timer fired without being set.
	e := NewExecution([]float64{0})
	e.Histories[0].Steps = append(e.Histories[0].Steps,
		Step{Clock: 2, Event: Event{Kind: KindTimer, At: 2}})
	if err := e.ValidateTimers(); err == nil {
		t.Error("unset timer accepted")
	}

	// Timer fires at the wrong clock.
	e2 := NewExecution([]float64{0})
	e2.Histories[0].Steps = append(e2.Histories[0].Steps,
		Step{Clock: 1, Event: Event{Kind: KindTimerSet, At: 2}},
		Step{Clock: 3, Event: Event{Kind: KindTimer, At: 2}})
	if err := e2.ValidateTimers(); err == nil {
		t.Error("late timer accepted")
	}

	// Timer set for the past.
	e3 := NewExecution([]float64{0})
	e3.Histories[0].Steps = append(e3.Histories[0].Steps,
		Step{Clock: 5, Event: Event{Kind: KindTimerSet, At: 2}})
	if err := e3.ValidateTimers(); err == nil {
		t.Error("past timer-set accepted")
	}

	// Well-formed sequence passes.
	e4 := NewExecution([]float64{0})
	e4.Histories[0].Steps = append(e4.Histories[0].Steps,
		Step{Clock: 1, Event: Event{Kind: KindTimerSet, At: 2}},
		Step{Clock: 2, Event: Event{Kind: KindTimer, At: 2}})
	if err := e4.ValidateTimers(); err != nil {
		t.Errorf("valid timers rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	b := NewBuilder([]float64{1, 2, 3})
	if b.N() != 3 {
		t.Errorf("Builder.N = %d, want 3", b.N())
	}
	e := twoProcExec(t, 1.5, 2.5, 1, 1)
	starts := e.Starts()
	if starts[0] != 1.5 || starts[1] != 2.5 {
		t.Errorf("Starts = %v", starts)
	}
	views := e.Views()
	if len(views) != 2 || views[0].Proc != 0 || len(views[0].Steps) == 0 {
		t.Errorf("Views = %+v", views)
	}
	h := e.Histories[0]
	if got := h.RealTime(0); got != h.Start {
		t.Errorf("RealTime(start) = %v, want %v", got, h.Start)
	}
}

func TestViewEqualBranches(t *testing.T) {
	e := twoProcExec(t, 0, 0, 1, 1)
	v0, v1 := e.Histories[0].View(), e.Histories[1].View()
	if v0.Equal(v1) {
		t.Error("views of different processors reported equal")
	}
	short := View{Proc: 0, Steps: v0.Steps[:1]}
	if v0.Equal(short) {
		t.Error("different-length views reported equal")
	}
	modified := View{Proc: 0, Steps: append([]Step(nil), v0.Steps...)}
	modified.Steps[1].Clock += 1
	if v0.Equal(modified) {
		t.Error("step-modified views reported equal")
	}
}

func TestEquivalentSizeMismatch(t *testing.T) {
	a := NewExecution([]float64{0})
	b := NewExecution([]float64{0, 0})
	if Equivalent(a, b) {
		t.Error("different-size executions reported equivalent")
	}
}

func TestValidateInvalidDelay(t *testing.T) {
	// An infinite start time makes a real delay infinite even though the
	// clock values are finite.
	e := NewExecution([]float64{0, math.Inf(1)})
	e.Histories[0].Steps = append(e.Histories[0].Steps,
		Step{Clock: 1, Event: Event{Kind: KindSend, Peer: 1, Msg: 1}})
	e.Histories[1].Steps = append(e.Histories[1].Steps,
		Step{Clock: 2, Event: Event{Kind: KindRecv, Peer: 0, Msg: 1}})
	if err := e.Validate(); err == nil {
		t.Error("infinite delay accepted")
	}
}

// TestEachMessageAllocs: on a Builder execution, timers and sends still
// in flight included, the walk makes the same number of allocations
// whatever the message count, and its index never makes the spill map.
func TestEachMessageAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nop := func(Message) error { return nil }
	var want float64
	for i, m := range []int{1, 100, 10000} {
		const n = 6
		b := NewBuilder(make([]float64, n))
		for k := 0; k < m; k++ {
			from := ProcID(rng.Intn(n))
			to := (from + 1 + ProcID(rng.Intn(n-1))) % n
			clock := float64(k)
			if _, err := b.AddMessage(from, to, clock, clock+rng.Float64()); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Send(to, from, clock); err != nil { // never delivered
				t.Fatal(err)
			}
			if err := b.AddTimer(from, clock, clock+1, k%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		e := mustBuild(t, b)
		x := newSendIndex(e)
		if err := x.addSends(e); err != nil {
			t.Fatal(err)
		}
		if err := x.eachReceipt(e, nop); err != nil {
			t.Fatal(err)
		}
		if x.spill != nil || len(x.recs) < m {
			t.Errorf("m=%d: %d slice records, spill map %v; want at least %d records and no map", m, len(x.recs), x.spill, m)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := e.EachMessage(nop); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			want = allocs
		}
		if allocs != want || allocs > 1 {
			t.Errorf("m=%d: %v allocs per walk, want %v (and at most 1)", m, allocs, want)
		}
	}
}
