package main

import (
	"bytes"
	"fmt"
	"time"

	"clocksync/internal/obs"
)

// layerKeys are the accounts a traced op's time is charged to. Each is the
// self time of calls into one module: a call's duration minus the solver
// phases core reported through Options.Observer while it ran.
var layerKeys = []string{
	"model.self",         // model.Execution.Messages (timed separately on the op's input)
	"trace.self",         // trace.Collect minus its Messages call
	"core.mls",           // Lemma 6.1 reduction to local shifts
	"core.estimate",      // GLOBAL ESTIMATES closure (Theorem 5.5)
	"core.karp_amax",     // maximum mean cycle A_max (Theorem 4.6)
	"core.corrections",   // shortest-path corrections
	"core.self",          // solve calls outside the phases: pool, validation, Clone
	"stream.observe",     // Stream.Observe calls
	"stream.corrections", // Stream.Corrections outside the phases: the cache check
	"sim.self",           // dist.Run outside the leader's compute: the simulator and flooding
	"dist.self",          // the leader's compute outside the phases: excision, table assembly
}

// countMetrics are the per-layer counts, read over exactly the first input
// cycle so they repeat per seed; workloads that never reach a layer report 0.
var countMetrics = []struct{ name, unit string }{
	{"stream.cached", "count"},
	{"stream.batch", "count"},
	{"stream.repaired", "count"},
	{"stream.cache_hit_ratio", "ratio"},
	{"sim.events_per_round", "count"},
	{"sim.messages_per_round", "count"},
	{"dist.reports.excised", "count"},
	{"dist.reports.refloods", "count"},
	{"dist.reports.authfail", "count"},
	{"dist.computes.degraded", "count"},
}

// layerMoves is the prediction written down before measuring: for every
// per-layer metric, the end-to-end metrics a change in that layer should
// move and the workloads where the layer does its work. Every other
// workload is predicted unchanged.
var layerMoves = map[string]struct{ e2e, workloads []string }{
	"op_p50_ms":              {[]string{"op_best_ms", "ops_per_s"}, allWorkloadNames()},
	"op_p90_ms":              {[]string{"ops_per_s"}, allWorkloadNames()},
	"op_p99_ms":              {[]string{"ops_per_s"}, allWorkloadNames()},
	"alloc_mb_per_op":        {[]string{"op_best_ms", "peak_rss_mb"}, allWorkloadNames()},
	"precision_s":            {nil, nil}, // guarded by the checks, not by a bound
	"traced.op_mean_ms":      {[]string{"op_best_ms", "ops_per_s"}, allWorkloadNames()},
	"obs.trace_overhead_pct": {nil, nil},
	"obs.unattributed_pct":   {nil, nil},
	"model.self_pct":         {[]string{"op_best_ms", "ops_per_s"}, []string{"trace-heavy"}},
	"model.bytes_per_msg":    {[]string{"peak_rss_mb"}, []string{"trace-heavy"}},
	"trace.self_pct":         {[]string{"op_best_ms", "ops_per_s"}, []string{"trace-heavy"}},
	"trace.bytes_per_msg":    {[]string{"peak_rss_mb"}, []string{"trace-heavy"}},
	"trace.msgs_per_op":      {[]string{"op_best_ms"}, []string{"trace-heavy"}},
	"core.mls_pct":           {[]string{"op_best_ms", "ops_per_s"}, []string{"dense-batch", "sparse-2k"}},
	"core.estimate_pct":      {[]string{"op_best_ms", "ops_per_s"}, []string{"dense-batch", "stream-steady", "sparse-2k"}},
	"core.karp_amax_pct":     {[]string{"op_best_ms", "ops_per_s"}, []string{"dense-batch", "stream-steady", "sparse-2k"}},
	"core.corrections_pct":   {[]string{"op_best_ms", "ops_per_s"}, []string{"dense-batch", "stream-steady", "sparse-2k"}},
	"core.self_pct":          {[]string{"op_best_ms", "peak_rss_mb"}, []string{"dense-batch", "sparse-2k"}},
	"stream.observe_pct":     {[]string{"op_best_ms"}, []string{"stream-steady"}},
	"stream.corrections_pct": {[]string{"op_best_ms"}, []string{"stream-steady"}},
	"stream.cached":          {[]string{"op_best_ms", "ops_per_s"}, []string{"stream-steady"}},
	"stream.batch":           {[]string{"op_best_ms", "ops_per_s"}, []string{"stream-steady"}},
	"stream.repaired":        {[]string{"op_best_ms", "ops_per_s"}, []string{"stream-steady"}},
	"stream.cache_hit_ratio": {[]string{"op_best_ms", "ops_per_s"}, []string{"stream-steady"}},
	"sim.self_pct":           {[]string{"op_best_ms", "ops_per_s"}, []string{"protocol-faulty"}},
	"sim.events_per_round":   {[]string{"op_best_ms", "ops_per_s"}, []string{"protocol-faulty"}},
	"sim.messages_per_round": {[]string{"op_best_ms", "ops_per_s"}, []string{"protocol-faulty"}},
	"dist.self_pct":          {[]string{"op_best_ms"}, []string{"protocol-faulty"}},
	"dist.reports.excised":   {[]string{"op_best_ms"}, []string{"protocol-faulty"}},
	"dist.reports.refloods":  {[]string{"op_best_ms"}, []string{"protocol-faulty"}},
	"dist.reports.authfail":  {[]string{"op_best_ms"}, []string{"protocol-faulty"}},
	"dist.computes.degraded": {[]string{"op_best_ms"}, []string{"protocol-faulty"}},
}

func allWorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// maxTracedOps bounds the ops whose spans go into the exported trace;
// the accounting covers every op of the pass.
const maxTracedOps = 200

// layerTrace times each call the benchmark makes into a layer's public
// entry point, charges self times to layerKeys and records the spans into
// an obs.Trace for the Chrome export. A nil *layerTrace is an untraced
// pass: its begin/end methods do nothing.
type layerTrace struct {
	name    string
	tr      *obs.Trace
	t0      time.Time // the trace's time origin, for merged spans
	self    map[string]time.Duration
	opTotal time.Duration
	ops     int
	round   int        // the current op's index, as the spans' round
	opID    obs.SpanID // the current op's span
	endSpan func()

	// Bytes allocated by the Messages probes and by the trace.Collect
	// calls (which include a Messages call), and the messages probed.
	modelBytes, traceBytes, msgs float64
}

func newLayerTrace(name string) *layerTrace {
	return &layerTrace{
		name: name,
		tr:   obs.NewTrace("clockbench " + name),
		t0:   time.Now(),
		self: make(map[string]time.Duration, len(layerKeys)),
	}
}

// spans is the trace while ops are still exported, nil afterwards; the
// obs.Trace methods are no-ops on nil.
func (lt *layerTrace) spans() *obs.Trace {
	if lt.ops >= maxTracedOps {
		return nil
	}
	return lt.tr
}

func (lt *layerTrace) beginOp(g int) {
	if lt == nil {
		return
	}
	lt.round = g
	lt.opID, lt.endSpan = lt.spans().StartChild("op", -1, g, 0)
}

func (lt *layerTrace) endOp(d time.Duration) {
	if lt == nil {
		return
	}
	lt.endSpan()
	lt.opTotal += d
	lt.ops++
}

// call runs fn, one call into a layer's entry point, as a span of the
// current op named entry. Phases reported to the observer fn receives are
// charged to core.<phase> and recorded as child spans; the rest of the
// call is charged to layer.
func (lt *layerTrace) call(layer, entry string, fn func(obs.PhaseObserver) error) error {
	tr := lt.spans()
	id, end := tr.StartChild(entry, -1, lt.round, lt.opID)
	rec := tr.ObserverChild(-1, lt.round, id)
	var phases time.Duration
	ob := obs.PhaseFunc(func(phase string, seconds float64) {
		d := time.Duration(seconds * 1e9)
		lt.self["core."+phase] += d
		phases += d
		if rec != nil {
			rec.ObservePhase(phase, seconds)
		}
	})
	start := time.Now()
	err := fn(ob)
	el := time.Since(start)
	end()
	lt.self[layer] += el - phases
	return err
}

// charge adds d to a layer's account outside any call (a separately timed
// probe, or moving time between accounts).
func (lt *layerTrace) charge(layer string, d time.Duration) { lt.self[layer] += d }

// absorbRound accounts one dist.Run call from the spans the protocol
// recorded itself: the leader's wall-clock "compute" span and the solver
// phases under it. The rest of the call is the simulator and flooding.
func (lt *layerTrace) absorbRound(spans []obs.Span, start time.Time, el time.Duration) {
	var compute, phases time.Duration
	for _, s := range spans {
		if s.Sim {
			continue
		}
		d := time.Duration(s.Seconds * 1e9)
		switch s.Phase {
		case "compute":
			compute += d
		case "mls", "estimate", "karp_amax", "corrections":
			lt.self["core."+s.Phase] += d
			phases += d
		}
	}
	lt.self["dist.self"] += compute - phases
	lt.self["sim.self"] += el - compute

	tr := lt.spans()
	if tr == nil {
		return
	}
	offset := start.Sub(lt.t0).Seconds()
	tr.Add(obs.Span{Phase: "dist.Run", Proc: -1, Round: lt.round, Start: offset,
		Seconds: el.Seconds(), ID: tr.NewSpanID(-1), Parent: lt.opID})
	for i := range spans {
		spans[i].Round = lt.round
		if !spans[i].Sim {
			spans[i].Start += offset
		}
	}
	tr.AddSpans(spans)
}

// metrics turns the traced pass into the per-layer metrics: each layer's
// share of the traced op time, the traced mean op time those shares are
// of, the tracing overhead against the untraced pass, and the counts.
func (lt *layerTrace) metrics(traced, plain []float64, counts map[string]float64) map[string]metric {
	total := lt.opTotal.Seconds()
	m := map[string]metric{
		"traced.op_mean_ms":      {total / float64(lt.ops) * 1e3, "ms"},
		"obs.trace_overhead_pct": {(median(traced)/median(plain) - 1) * 100, "%"},
	}
	attributed := 0.0
	for _, k := range layerKeys {
		s := lt.self[k].Seconds()
		attributed += s
		m[k+"_pct"] = metric{s / total * 100, "%"}
	}
	m["obs.unattributed_pct"] = metric{(total - attributed) / total * 100, "%"}
	perMsg := func(b float64) float64 {
		if lt.msgs == 0 {
			return 0
		}
		return b / lt.msgs
	}
	m["model.bytes_per_msg"] = metric{perMsg(lt.modelBytes), "B"}
	m["trace.bytes_per_msg"] = metric{perMsg(lt.traceBytes - lt.modelBytes), "B"}
	m["trace.msgs_per_op"] = metric{lt.msgs / float64(lt.ops), "count"}
	for _, c := range countMetrics {
		m[c.name] = metric{counts[c.name], c.unit}
	}
	return m
}

// table renders the per-layer split: self time per op and share of the
// traced op time.
func (lt *layerTrace) table() []byte {
	var b bytes.Buffer
	total := lt.opTotal.Seconds()
	ops := float64(lt.ops)
	fmt.Fprintf(&b, "%s: %d traced ops, mean %.4f ms\n", lt.name, lt.ops, total/ops*1e3)
	fmt.Fprintf(&b, "%-20s %14s %8s\n", "layer", "self ms/op", "share")
	attributed := 0.0
	for _, k := range layerKeys {
		s := lt.self[k].Seconds()
		attributed += s
		fmt.Fprintf(&b, "%-20s %14.4f %7.2f%%\n", k, s/ops*1e3, s/total*100)
	}
	rest := total - attributed
	fmt.Fprintf(&b, "%-20s %14.4f %7.2f%%\n", "(unattributed)", rest/ops*1e3, rest/total*100)
	return b.Bytes()
}

// write exports the Chrome trace (open it in ui.perfetto.dev) and the
// layer table into dir.
func (lt *layerTrace) write(dir string) error {
	var tr bytes.Buffer
	if err := lt.tr.WriteChrome(&tr); err != nil {
		return err
	}
	if err := writeFileIn(dir, lt.name+".trace.json", tr.Bytes()); err != nil {
		return err
	}
	return writeFileIn(dir, lt.name+".layers.txt", lt.table())
}
