// Package obs is the observability substrate of the repository: structured
// logging, a lightweight metrics registry, sync-round tracing, and runtime
// introspection over HTTP.
//
// Design rules, in order:
//
//   - Library callers pay nothing. The package-level logger defaults to a
//     nop whose Enabled check is one atomic load; metrics are plain atomic
//     counters registered once at package init; tracing and the HTTP
//     listener are strictly opt-in.
//   - Everything is safe for concurrent use. Counters, gauges and
//     histograms are lock-free; the registry locks only on (rare)
//     registration and snapshot.
//   - No dependencies beyond the standard library.
//
// The instrumented packages (sim, dist, netsync, core, the commands) hold
// their loggers and metrics in package variables:
//
//	var (
//	    log   = obs.For("sim")
//	    mSent = obs.Default.Counter("sim.messages.sent")
//	)
//
// Enabling output is the application's choice:
//
//	obs.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
//	srv, _ := obs.Serve("127.0.0.1:9100", obs.Default) // /metrics, /healthz, pprof
//
// See docs/observability.md for the metric catalog and endpoint semantics.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// sink holds the currently installed slog.Handler; a zero box means
// logging is disabled (the default).
var sink atomic.Value // handlerBox

// handlerBox wraps the handler so atomic.Value always stores one concrete
// type (it rejects inconsistent dynamic types).
type handlerBox struct{ h slog.Handler }

func currentHandler() slog.Handler {
	b, _ := sink.Load().(handlerBox)
	return b.h
}

// SetLogger installs the destination for every component logger created
// with For, past and future: the loggers are dynamic, so a logger held in
// a package variable starts emitting the moment SetLogger runs. Passing
// nil restores the nop default.
func SetLogger(l *slog.Logger) {
	if l == nil {
		sink.Store(handlerBox{})
		return
	}
	sink.Store(handlerBox{h: l.Handler()})
}

// EnableLogging installs a text (or JSON) logger writing to w at the
// given level. Level strings: "debug", "info", "warn", "error"; "off" or
// "" uninstalls. This is the convenience the commands use for their -log
// flags.
func EnableLogging(w io.Writer, level string, jsonFormat bool) error {
	lvl, off, err := ParseLevel(level)
	if err != nil {
		return err
	}
	if off {
		SetLogger(nil)
		return nil
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	SetLogger(slog.New(h))
	return nil
}

// ParseLevel parses a -log flag value. The second return value reports
// "logging off" ("off", "none" or empty).
func ParseLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none":
		return 0, true, nil
	case "debug":
		return slog.LevelDebug, false, nil
	case "info":
		return slog.LevelInfo, false, nil
	case "warn", "warning":
		return slog.LevelWarn, false, nil
	case "error":
		return slog.LevelError, false, nil
	}
	return 0, false, fmt.Errorf("obs: unknown log level %q (want off|debug|info|warn|error)", s)
}

// For returns the named component logger ("sim", "dist", "netsync",
// "gossip", "cli", ...). The logger is a cheap dynamic shell: while no
// logger is installed its Enabled check fails after one atomic load and
// records are discarded without formatting.
func For(component string) *slog.Logger {
	return slog.New(dynHandler{}).With(slog.String("component", component))
}

// dynHandler forwards to whatever handler SetLogger installed at Handle
// time. wrap replays WithAttrs/WithGroup decorations onto the live
// handler, preserving ordering.
type dynHandler struct {
	wrap func(slog.Handler) slog.Handler
}

func (d dynHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	h := currentHandler()
	return h != nil && h.Enabled(ctx, lvl)
}

func (d dynHandler) Handle(ctx context.Context, r slog.Record) error {
	h := currentHandler()
	if h == nil {
		return nil
	}
	if d.wrap != nil {
		h = d.wrap(h)
	}
	return h.Handle(ctx, r)
}

func (d dynHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return d
	}
	prev := d.wrap
	return dynHandler{wrap: func(h slog.Handler) slog.Handler {
		if prev != nil {
			h = prev(h)
		}
		return h.WithAttrs(attrs)
	}}
}

func (d dynHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return d
	}
	prev := d.wrap
	return dynHandler{wrap: func(h slog.Handler) slog.Handler {
		if prev != nil {
			h = prev(h)
		}
		return h.WithGroup(name)
	}}
}
