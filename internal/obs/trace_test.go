package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestTraceSpans records wall and simulated spans and checks the JSON
// export shape.
func TestTraceSpans(t *testing.T) {
	tr := NewTrace("run-1")
	_, end := tr.StartChild("compute", -1, 0, 0)
	end()
	tr.AddSimChild("probe", 3, 0, 1.5, 2.0, 0)
	tr.ObserverChild(0, 0, 0).ObservePhase("estimate", 0.25)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byPhase := map[string]Span{}
	for _, s := range spans {
		byPhase[s.Phase] = s
	}
	if s := byPhase["probe"]; !s.Sim || s.Proc != 3 || s.Start != 1.5 || s.Seconds != 2.0 {
		t.Errorf("probe span = %+v", s)
	}
	if s := byPhase["estimate"]; s.Sim || s.Seconds != 0.25 || s.Proc != 0 {
		t.Errorf("estimate span = %+v", s)
	}
	if s := byPhase["compute"]; s.Seconds < 0 || s.Proc != -1 {
		t.Errorf("compute span = %+v", s)
	}

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name  string `json:"name"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if doc.Name != "run-1" || len(doc.Spans) != 3 {
		t.Errorf("export = %s", data)
	}
}

// TestTraceNilSafe: every method is a no-op on a nil trace.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(Span{})
	tr.AddSimChild("x", 0, 0, 0, 0, 0)
	_, end := tr.StartChild("x", 0, 0, 0)
	end()
	if tr.ObserverChild(0, 0, 0) != nil {
		t.Error("nil trace returned a non-nil observer")
	}
	if tr.Spans() != nil || tr.Len() != 0 || tr.Name() != "" {
		t.Error("nil trace leaked state")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil trace WriteJSON: %v", err)
	}
}

// TestTraceConcurrent appends spans from many goroutines (run with -race).
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("c")
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.AddSimChild("p", i, 0, 0, 1, 0)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Errorf("len = %d, want %d", tr.Len(), workers*per)
	}
}

// TestLoggingDefaultsOffAndDynamic: component loggers are nop until
// SetLogger installs a sink, then records flow with the component attr —
// including loggers created before SetLogger ran.
func TestLoggingDefaultsOffAndDynamic(t *testing.T) {
	SetLogger(nil)
	t.Cleanup(func() { SetLogger(nil) })

	early := For("sim") // created while logging is off
	if early.Enabled(context.Background(), slog.LevelError) {
		t.Error("nop logger claims Enabled")
	}
	early.Info("dropped") // must not panic, must not emit

	var buf bytes.Buffer
	SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	if !early.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("pre-existing logger did not pick up the sink")
	}
	early.Debug("hello", "peer", 2)
	late := For("netsync").With("addr", "127.0.0.1:9")
	late.Info("dialed")

	out := buf.String()
	for _, want := range []string{"component=sim", "hello", "peer=2", "component=netsync", "addr=127.0.0.1:9", "dialed"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "dropped") {
		t.Error("record emitted while logging was off")
	}
}

// TestParseLevel covers the -log flag values.
func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		lvl, off, err := ParseLevel(s)
		if err != nil || off || lvl != want {
			t.Errorf("ParseLevel(%q) = %v,%v,%v", s, lvl, off, err)
		}
	}
	for _, s := range []string{"", "off", "none"} {
		if _, off, err := ParseLevel(s); err != nil || !off {
			t.Errorf("ParseLevel(%q) not off: %v", s, err)
		}
	}
	if _, _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}
