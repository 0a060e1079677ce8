package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseObserver receives the duration of one named pipeline phase. The
// core package reports its SHIFTS phases ("mls", "estimate", "karp_amax",
// "corrections") through this interface so it needs no knowledge of
// traces or registries.
type PhaseObserver interface {
	ObservePhase(phase string, seconds float64)
}

// PhaseFunc adapts a function to PhaseObserver.
type PhaseFunc func(phase string, seconds float64)

// ObservePhase implements PhaseObserver.
func (f PhaseFunc) ObservePhase(phase string, seconds float64) { f(phase, seconds) }

// SpanID identifies one span within a trace. IDs are allocated per
// emitting node from disjoint ranges (NewSpanID), so spans recorded on
// different processes can be merged into one trace without collisions.
// The zero SpanID means "no id" (legacy spans) and RootSpanID is the
// well-known id of a round's root span, so distributed emitters can
// parent their spans under the coordinator's round without a handshake.
type SpanID uint64

// RootSpanID is the conventional id of the round root span: the
// coordinator (or leader) records the "round" span under this id, and
// every other participant parents its top-level spans to it.
const RootSpanID SpanID = 1

// Span is one timed phase of a synchronization round.
type Span struct {
	// Phase names the work: "probe", "collect", "mls", "estimate",
	// "karp_amax", "corrections", "compute", ...
	Phase string `json:"phase"`
	// Proc is the processor the span belongs to; -1 for global spans.
	Proc int `json:"proc"`
	// Round is the synchronization round (0 for single-round runs).
	Round int `json:"round"`
	// Start is the span's begin instant: seconds since the trace was
	// created for wall-clock spans, the processor's clock reading for
	// simulated ones.
	Start float64 `json:"start"`
	// Seconds is the span duration.
	Seconds float64 `json:"seconds"`
	// Sim marks spans measured on the simulated clock axis rather than
	// wall time.
	Sim bool `json:"sim,omitempty"`
	// ID identifies the span within its trace (0 for legacy spans that
	// never participate in causal links).
	ID SpanID `json:"id,omitempty"`
	// Parent is the id of the causally enclosing span: RootSpanID for
	// top-level per-node work, a probe span's id for its remote receive
	// span, and so on. 0 means "no recorded parent".
	Parent SpanID `json:"parent,omitempty"`
}

// Trace accumulates the spans of a run. All methods are safe for
// concurrent use and safe on a nil receiver (they become no-ops), so
// instrumented code can thread an optional *Trace without nil checks.
type Trace struct {
	mu      sync.Mutex
	name    string
	traceID string
	t0      time.Time
	spans   []Span
	seq     atomic.Uint64 // per-trace span sequence for NewSpanID
}

// NewTrace creates an empty trace; name labels the run in the JSON
// export.
func NewTrace(name string) *Trace {
	return &Trace{name: name, t0: time.Now()}
}

// Name returns the trace label ("" on nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetTraceID labels the trace with a cluster-wide correlation id (a hex
// string derived deterministically from the cluster configuration, so
// every participant computes the same id without a handshake). No-op on
// nil.
func (t *Trace) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the correlation id ("" on nil or when unset).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// NewSpanID allocates a fresh span id in node's private range: the high
// 32 bits carry node+2 (so node -1, the global pseudo-processor, and
// node 0 both stay clear of RootSpanID), the low 32 bits a per-trace
// sequence. IDs from distinct nodes therefore never collide when
// node-local spans are merged into a cluster trace. Returns 0 on nil.
func (t *Trace) NewSpanID(node int) SpanID {
	if t == nil {
		return 0
	}
	return SpanID(uint64(node+2)<<32 | t.seq.Add(1)&0xffffffff)
}

// Add appends one span.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// AddSpans appends a batch of externally recorded spans (e.g. spans a
// remote node shipped inside its report) without touching their ids.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// AddSimChild appends a sim-clock span with explicit causal links and
// returns its id (0 on nil).
func (t *Trace) AddSimChild(phase string, proc, round int, startClock, seconds float64, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	id := t.NewSpanID(proc)
	t.Add(Span{Phase: phase, Proc: proc, Round: round, Start: startClock, Seconds: seconds,
		Sim: true, ID: id, Parent: parent})
	return id
}

// StartChild begins a wall-clock span parented under parent and returns
// the new span's id together with the function that ends and records it.
// On a nil trace the id is 0 and the closer is a no-op.
func (t *Trace) StartChild(phase string, proc, round int, parent SpanID) (SpanID, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.NewSpanID(proc)
	return id, t.StartSpan(phase, proc, round, id, parent)
}

// StartSpan begins a wall-clock span with an explicit id (e.g.
// RootSpanID for a round's root) and returns the function that ends and
// records it. No-op closer on a nil trace.
func (t *Trace) StartSpan(phase string, proc, round int, id, parent SpanID) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		t.Add(Span{
			Phase:   phase,
			Proc:    proc,
			Round:   round,
			Start:   begin.Sub(t.t0).Seconds(),
			Seconds: time.Since(begin).Seconds(),
			ID:      id,
			Parent:  parent,
		})
	}
}

// Mark records an instant (zero-duration) wall-clock span now — e.g. a
// frame receipt whose causal parent is the sender's span — and returns
// its id (0 on nil).
func (t *Trace) Mark(phase string, proc, round int, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	id := t.NewSpanID(proc)
	t.Add(Span{Phase: phase, Proc: proc, Round: round,
		Start: time.Since(t.t0).Seconds(), ID: id, Parent: parent})
	return id
}

// ObserverChild returns a PhaseObserver that records each reported phase
// as a wall-clock span attributed to proc and round and parented under
// parent (typically the enclosing "compute" span; 0 for none). Phases are
// reported after they ran, some of them together, so the spans are laid
// end to end in report order from the moment the observer was created:
// they tile the work with their measured durations instead of
// overlapping. Returns nil on a nil trace so callers can pass it straight
// into core.Options.
func (t *Trace) ObserverChild(proc, round int, parent SpanID) PhaseObserver {
	if t == nil {
		return nil
	}
	next := time.Since(t.t0).Seconds()
	return PhaseFunc(func(phase string, seconds float64) {
		id := t.NewSpanID(proc)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Phase: phase, Proc: proc, Round: round, Start: next, Seconds: seconds,
			ID: id, Parent: parent})
		next += seconds
		t.mu.Unlock()
	})
}

// Spans returns a copy of the recorded spans (nil on a nil trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceJSON is the export envelope.
type traceJSON struct {
	Name    string `json:"name"`
	TraceID string `json:"traceId,omitempty"`
	Spans   []Span `json:"spans"`
}

// JSON renders the trace as an indented JSON document.
func (t *Trace) JSON() ([]byte, error) {
	doc := traceJSON{Name: t.Name(), TraceID: t.TraceID(), Spans: t.Spans()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteJSON writes the JSON export to w.
func (t *Trace) WriteJSON(w io.Writer) error {
	data, err := t.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// chromeEvent is one entry of the Chrome trace_event format ("X" complete
// events), loadable directly by Perfetto and chrome://tracing. Timestamps
// are microseconds; pid separates the clock axes (0 wall, 1 simulated)
// and tid is the processor.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

type chromeDoc struct {
	TraceEvents     []any  `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// ChromeJSON renders the trace in Chrome trace_event format so a round
// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Wall-clock spans land in process 0, sim-clock spans in process 1 (the
// two axes share no origin, so mixing them on one timeline would
// mislead); each processor is a thread, and every event's args carry the
// span id, parent id, round and trace id for causal reconstruction.
func (t *Trace) ChromeJSON() ([]byte, error) {
	spans := t.Spans()
	traceID := t.TraceID()
	doc := chromeDoc{TraceEvents: make([]any, 0, len(spans)+2), DisplayTimeUnit: "ms"}
	for pid, label := range []string{t.Name() + " (wall clock)", t.Name() + " (sim clock)"} {
		doc.TraceEvents = append(doc.TraceEvents, chromeMeta{
			Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": label},
		})
	}
	for _, s := range spans {
		pid := 0
		if s.Sim {
			pid = 1
		}
		args := map[string]any{"round": s.Round}
		if s.ID != 0 {
			args["id"] = fmt.Sprintf("%#x", uint64(s.ID))
		}
		if s.Parent != 0 {
			args["parent"] = fmt.Sprintf("%#x", uint64(s.Parent))
		}
		if traceID != "" {
			args["trace"] = traceID
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Phase,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  s.Seconds * 1e6,
			Pid:  pid,
			Tid:  s.Proc,
			Args: args,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteChrome writes the Chrome trace_event export to w.
func (t *Trace) WriteChrome(w io.Writer) error {
	data, err := t.ChromeJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
