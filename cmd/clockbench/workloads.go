package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"clocksync"
	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// Every workload declares SymmetricBounds(delayLB, delayUB) on each link
// and draws each message delay uniformly from that range; start times are
// uniform over startSpread seconds.
const (
	delayLB, delayUB = 0.05, 0.2
	startSpread      = 1.0
	// rhoSlack absorbs float rounding in Rho <= Precision checks.
	rhoSlack = 1e-9
)

// digester hashes generated inputs so two runs can show they saw the same.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) i(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func uniformDelay(rng *rand.Rand) float64 { return delayLB + (delayUB-delayLB)*rng.Float64() }

// boundedLinks declares the workload assumption on every pair.
func boundedLinks(pairs []sim.Pair) []core.Link {
	a := clocksync.MustSymmetricBounds(delayLB, delayUB)
	links := make([]core.Link, len(pairs))
	for i, e := range pairs {
		links[i] = core.Link{P: model.ProcID(e.P), Q: model.ProcID(e.Q), A: a}
	}
	return links
}

// message is one generated delivery: sender and receiver clocks derived
// from a real send time and a real delay.
type message struct {
	from, to             model.ProcID
	sendClock, recvClock float64
}

// genMessage draws the delay of one from -> to message sent at real time
// sendReal and converts it to clock readings under starts.
func genMessage(rng *rand.Rand, d *digester, starts []float64, from, to int, sendReal float64) message {
	delay := uniformDelay(rng)
	d.i(from, to)
	d.f(sendReal, delay)
	return message{
		from: model.ProcID(from), to: model.ProcID(to),
		sendClock: sendReal - starts[from],
		recvClock: sendReal + delay - starts[to],
	}
}

// probeMessages sends probes messages each way over every pair, inside a
// one-second window after every processor started.
func probeMessages(rng *rand.Rand, d *digester, starts []float64, pairs []sim.Pair, probes int) []message {
	msgs := make([]message, 0, 2*probes*len(pairs))
	for _, e := range pairs {
		for k := 0; k < probes; k++ {
			msgs = append(msgs,
				genMessage(rng, d, starts, e.P, e.Q, startSpread+rng.Float64()),
				genMessage(rng, d, starts, e.Q, e.P, startSpread+rng.Float64()))
		}
	}
	return msgs
}

func genStarts(rng *rand.Rand, d *digester, n int) []float64 {
	starts := sim.UniformStarts(rng, n, startSpread)
	d.f(starts...)
	return starts
}

// execution assembles the formal execution of the generated messages.
func execution(starts []float64, msgs []message) (*model.Execution, error) {
	b := model.NewBuilder(starts)
	for _, m := range msgs {
		if _, err := b.AddMessage(m.from, m.to, m.sendClock, m.recvClock); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// certify is the independent reference check of a solve on an execution
// whose true delays are known: the critical cycle's mean of TRUE maximal
// shifts must equal the claimed precision (Theorem 4.4), and the realized
// discrepancy must stay within it.
func certify(e *model.Execution, links []core.Link, res *core.Result) error {
	if _, err := verify.ExactCertificate(e, links, core.DefaultMLSOptions(), res); err != nil {
		return err
	}
	return rhoWithin(e.Starts(), res)
}

func rhoWithin(starts []float64, res *core.Result) error {
	rho, err := core.Rho(starts, res.Corrections)
	if err != nil {
		return err
	}
	if rho > res.Precision+rhoSlack {
		return fmt.Errorf("realized discrepancy %v exceeds precision %v", rho, res.Precision)
	}
	return nil
}

// sameResult compares an op's output bitwise with the reference. With
// perturb, the last correction is shifted first, on a copy.
func sameResult(got, want *core.Result, perturb bool) error {
	corr := got.Corrections
	if perturb {
		corr = append([]float64(nil), corr...)
		corr[len(corr)-1] += 1
	}
	if math.Float64bits(got.Precision) != math.Float64bits(want.Precision) {
		return fmt.Errorf("precision %v, reference %v", got.Precision, want.Precision)
	}
	if len(corr) != len(want.Corrections) {
		return fmt.Errorf("%d corrections, reference %d", len(corr), len(want.Corrections))
	}
	for p, x := range corr {
		if math.Float64bits(x) != math.Float64bits(want.Corrections[p]) {
			return fmt.Errorf("correction of p%d is %v, reference %v", p, x, want.Corrections[p])
		}
	}
	return nil
}

// withObserver routes core's phase timings to ob.
func withObserver(ob obs.PhaseObserver) clocksync.Option {
	return func(o *core.Options) { o.Observer = ob }
}

// noCounts is the counts of workloads whose layers have none.
type noCounts struct{}

func (noCounts) counts() map[string]float64 { return nil }

// ---------------------------------------------------------------------------
// dense-batch: recorded rounds of 128-node random graphs cycled through
// the public batch API. The O(n^3) dense kernels do nearly all the work.
// Eight graphs per run, so a run's precision is not one graph's.

type denseRound struct {
	sys *clocksync.System
	rec *clocksync.Recorder
	ref *core.Result
}

type denseBatch struct {
	noCounts
	rounds []denseRound
	last   *core.Result
	sum    string
}

func setupDenseBatch(rng *rand.Rand, quick bool) (bench, error) {
	n, graphs, rounds := 128, 8, 4
	if quick {
		n, graphs, rounds = 16, 2, 2
	}
	const p, probes = 0.1, 4
	d := newDigester()
	w := &denseBatch{}
	for gi := 0; gi < graphs; gi++ {
		pairs := sim.RandomConnected(rng, n, p)
		links := boundedLinks(pairs)
		sys, err := clocksync.NewSystem(n)
		if err != nil {
			return nil, err
		}
		for _, l := range links {
			d.i(int(l.P), int(l.Q))
			if err := sys.AddLink(l.P, l.Q, l.A); err != nil {
				return nil, err
			}
		}
		for r := 0; r < rounds; r++ {
			starts := genStarts(rng, d, n)
			msgs := probeMessages(rng, d, starts, pairs, probes)
			e, err := execution(starts, msgs)
			if err != nil {
				return nil, err
			}
			rec := clocksync.NewRecorder(n)
			for _, m := range msgs {
				if err := rec.Observe(m.from, m.to, m.sendClock, m.recvClock); err != nil {
					return nil, err
				}
			}
			res, err := sys.Synchronize(rec)
			if err != nil {
				return nil, err
			}
			if err := certify(e, links, res); err != nil {
				return nil, fmt.Errorf("graph %d round %d reference: %w", gi, r, err)
			}
			w.rounds = append(w.rounds, denseRound{sys, rec, res})
		}
	}
	w.sum = d.sum()
	return w, nil
}

func (w *denseBatch) digest() string                 { return w.sum }
func (w *denseBatch) cycle() int                     { return len(w.rounds) }
func (w *denseBatch) prepare(int, *layerTrace) error { return nil }
func (w *denseBatch) close()                         {}

func (w *denseBatch) op(g int, lt *layerTrace) error {
	r := &w.rounds[g%len(w.rounds)]
	if lt == nil {
		var err error
		w.last, err = r.sys.Synchronize(r.rec)
		return err
	}
	return lt.call("core.self", "clocksync.System.Synchronize", func(ob obs.PhaseObserver) (err error) {
		w.last, err = r.sys.Synchronize(r.rec, withObserver(ob))
		return err
	})
}

func (w *denseBatch) check(g int, perturb bool) (float64, error) {
	return w.last.Precision, sameResult(w.last, w.rounds[g%len(w.rounds)].ref, perturb)
}

// ---------------------------------------------------------------------------
// trace-heavy: long recorded executions of a small complete graph, each op
// reducing one to per-link statistics (Lemma 6.1) and solving. The view
// reduction is nearly all of the op; the n=16 solve is a sliver.

type traceHeavy struct {
	noCounts
	n     int
	links []core.Link
	execs []*model.Execution
	ref   []*core.Result
	last  *core.Result
	sum   string
}

func setupTraceHeavy(rng *rand.Rand, quick bool) (bench, error) {
	n, perExec, execs := 16, 25000, 16
	if quick {
		n, perExec, execs = 8, 2000, 2
	}
	d := newDigester()
	pairs := sim.Complete(n)
	w := &traceHeavy{n: n, links: boundedLinks(pairs)}
	for x := 0; x < execs; x++ {
		starts := genStarts(rng, d, n)
		msgs := make([]message, perExec)
		for k := range msgs {
			e := pairs[rng.Intn(len(pairs))]
			from, to := e.P, e.Q
			if rng.Intn(2) == 1 {
				from, to = to, from
			}
			msgs[k] = genMessage(rng, d, starts, from, to, startSpread+float64(k)*1e-3)
		}
		e, err := execution(starts, msgs)
		if err != nil {
			return nil, err
		}
		res, err := w.solve(e)
		if err != nil {
			return nil, err
		}
		if err := certify(e, w.links, res); err != nil {
			return nil, fmt.Errorf("execution %d reference: %w", x, err)
		}
		w.execs = append(w.execs, e)
		w.ref = append(w.ref, res)
	}
	w.sum = d.sum()
	return w, nil
}

func (w *traceHeavy) solve(e *model.Execution) (*core.Result, error) {
	tab, err := trace.Collect(e, false)
	if err != nil {
		return nil, err
	}
	return core.SynchronizeSystem(w.n, w.links, tab, core.DefaultMLSOptions(), core.Options{})
}

func (w *traceHeavy) digest() string { return w.sum }
func (w *traceHeavy) cycle() int     { return len(w.execs) }
func (w *traceHeavy) close()         {}

// prepare, in a traced pass, times Execution.Messages on the input the op
// is about to reduce: trace.Collect calls it first, so its time and bytes
// move from the trace account to the model account.
func (w *traceHeavy) prepare(g int, lt *layerTrace) error {
	if lt == nil {
		return nil
	}
	e := w.execs[g%len(w.execs)]
	_, end := lt.spans().StartChild("model.Execution.Messages (probe)", -1, g, 0)
	a := heapAllocBytes()
	start := time.Now()
	msgs, err := e.Messages()
	el := time.Since(start)
	lt.modelBytes += float64(heapAllocBytes() - a)
	end()
	if err != nil {
		return err
	}
	lt.msgs += float64(len(msgs))
	lt.charge("model.self", el)
	lt.charge("trace.self", -el)
	return nil
}

func (w *traceHeavy) op(g int, lt *layerTrace) error {
	e := w.execs[g%len(w.execs)]
	if lt == nil {
		var err error
		w.last, err = w.solve(e)
		return err
	}
	var tab *trace.Table
	a := heapAllocBytes()
	err := lt.call("trace.self", "trace.Collect", func(obs.PhaseObserver) (err error) {
		tab, err = trace.Collect(e, false)
		return err
	})
	lt.traceBytes += float64(heapAllocBytes() - a)
	if err != nil {
		return err
	}
	return lt.call("core.self", "core.SynchronizeSystem", func(ob obs.PhaseObserver) (err error) {
		w.last, err = core.SynchronizeSystem(w.n, w.links, tab, core.DefaultMLSOptions(), core.Options{Observer: ob})
		return err
	})
}

func (w *traceHeavy) check(g int, perturb bool) (float64, error) {
	return w.last.Precision, sameResult(w.last, w.ref[g%len(w.ref)], perturb)
}

// ---------------------------------------------------------------------------
// stream-steady: a warmed-up Stream fed ticks of random observations, each
// tick followed by Corrections. Most ticks are served from the certified
// cache, the rest re-solve in batch. An episode replays one graph's ticks on
// a freshly warmed stream, and episodes rotate over four graphs, so the mix
// of cached and batch ticks is the same however many episodes a run
// completes, and is not one graph's.

type streamGraph struct {
	sys    *clocksync.System
	links  []core.Link
	starts []float64
	warm   []message
	ticks  [][]message
}

type streamSteady struct {
	n      int
	graphs []streamGraph
	cur    int // the current episode's graph
	st     *clocksync.Stream
	traced bool // st reports phases to ob
	ob     obs.PhaseObserver
	tick   int // ticks of the current episode done
	base   clocksync.StreamStats
	tally  map[string]float64 // solve paths over the first cycle
	ended  int                // episodes ended
	last   *core.Result
	sum    string
}

func setupStreamSteady(rng *rand.Rand, quick bool) (bench, error) {
	n, graphs, warmRounds, episode, perTick := 128, 4, 100, 500, 64
	if quick {
		n, graphs, warmRounds, episode, perTick = 16, 2, 5, 20, 16
	}
	const p = 0.05
	d := newDigester()
	w := &streamSteady{n: n, tally: map[string]float64{}}
	for gi := 0; gi < graphs; gi++ {
		pairs := sim.RandomConnected(rng, n, p)
		for _, e := range pairs {
			d.i(e.P, e.Q)
		}
		gr := streamGraph{links: boundedLinks(pairs), starts: genStarts(rng, d, n)}
		for r := 0; r < warmRounds; r++ {
			gr.warm = append(gr.warm, probeMessages(rng, d, gr.starts, pairs, 1)...)
		}
		for t := 0; t < episode; t++ {
			tick := make([]message, perTick)
			for k := range tick {
				e := pairs[rng.Intn(len(pairs))]
				from, to := e.P, e.Q
				if rng.Intn(2) == 1 {
					from, to = to, from
				}
				tick[k] = genMessage(rng, d, gr.starts, from, to, startSpread+rng.Float64())
			}
			gr.ticks = append(gr.ticks, tick)
		}
		sys, err := clocksync.NewSystem(n)
		if err != nil {
			return nil, err
		}
		for _, l := range gr.links {
			if err := sys.AddLink(l.P, l.Q, l.A); err != nil {
				return nil, err
			}
		}
		gr.sys = sys
		w.graphs = append(w.graphs, gr)
	}
	// Reference: each graph's warm solve against its batch mirror. The
	// last rebuild leaves graph 0 ready for the first episode.
	for k := 1; k <= graphs; k++ {
		gi := k % graphs
		res, err := w.rebuild(gi, false)
		if err != nil {
			return nil, err
		}
		if err := rhoWithin(w.graphs[gi].starts, res); err != nil {
			return nil, fmt.Errorf("graph %d warm reference: %w", gi, err)
		}
		want, err := w.mirror(0)
		if err != nil {
			return nil, err
		}
		if err := sameResult(res, want, false); err != nil {
			return nil, fmt.Errorf("graph %d warm stream vs batch mirror: %w", gi, err)
		}
	}
	w.sum = d.sum()
	return w, nil
}

// rebuild starts an episode on graph gi: a fresh stream fed the warm-up
// rounds and solved once, its stats taken as the episode's base. The warm
// solve is returned, valid until the next Corrections call.
func (w *streamSteady) rebuild(gi int, traced bool) (*core.Result, error) {
	if w.st != nil {
		w.st.Close()
	}
	var opts []clocksync.Option
	if traced {
		opts = append(opts, withObserver(obs.PhaseFunc(func(phase string, s float64) {
			if w.ob != nil {
				w.ob.ObservePhase(phase, s)
			}
		})))
	}
	gr := &w.graphs[gi]
	st, err := gr.sys.NewStream(opts...)
	if err != nil {
		return nil, err
	}
	for _, m := range gr.warm {
		if err := st.Observe(m.from, m.to, m.sendClock, m.recvClock); err != nil {
			return nil, err
		}
	}
	res, err := st.Corrections()
	if err != nil {
		return nil, err
	}
	w.st, w.cur, w.traced, w.tick, w.base = st, gi, traced, 0, st.Stats()
	return res, nil
}

// mirror solves the current graph's warm-up and first ticks in batch, on a
// trace.Table of its own.
func (w *streamSteady) mirror(ticks int) (*core.Result, error) {
	gr := &w.graphs[w.cur]
	tab := trace.NewTable(w.n, false)
	add := func(ms []message) error {
		for _, m := range ms {
			if err := tab.Add(trace.Sample{From: m.from, To: m.to, SendClock: m.sendClock, RecvClock: m.recvClock}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(gr.warm); err != nil {
		return nil, err
	}
	for _, t := range gr.ticks[:ticks] {
		if err := add(t); err != nil {
			return nil, err
		}
	}
	return core.SynchronizeSystem(w.n, gr.links, tab, core.DefaultMLSOptions(), core.Options{})
}

func (w *streamSteady) digest() string { return w.sum }
func (w *streamSteady) cycle() int     { return len(w.graphs) * len(w.graphs[0].ticks) }

func (w *streamSteady) close() {
	if w.st != nil {
		w.st.Close()
	}
}

// prepare starts the next graph's episode when one ended, and restarts the
// current one when the pass switches between traced and untraced (the
// observer is fixed per stream).
func (w *streamSteady) prepare(_ int, lt *layerTrace) error {
	var err error
	switch {
	case w.tick == len(w.graphs[w.cur].ticks):
		_, err = w.rebuild((w.cur+1)%len(w.graphs), lt != nil)
	case w.traced != (lt != nil):
		_, err = w.rebuild(w.cur, lt != nil)
	}
	return err
}

func (w *streamSteady) op(_ int, lt *layerTrace) error {
	tick := w.graphs[w.cur].ticks[w.tick]
	w.tick++
	if lt == nil {
		for _, m := range tick {
			if err := w.st.Observe(m.from, m.to, m.sendClock, m.recvClock); err != nil {
				return err
			}
		}
		var err error
		w.last, err = w.st.Corrections()
		return err
	}
	err := lt.call("stream.observe", "clocksync.Stream.Observe", func(obs.PhaseObserver) error {
		for _, m := range tick {
			if err := w.st.Observe(m.from, m.to, m.sendClock, m.recvClock); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return lt.call("stream.corrections", "clocksync.Stream.Corrections", func(ob obs.PhaseObserver) (err error) {
		w.ob = ob
		w.last, err = w.st.Corrections()
		w.ob = nil
		return err
	})
}

// check compares the stream with its batch mirror at the end of every
// episode (every 500th tick), and on a perturbed check. Episode ends also
// tally the solve paths of the first cycle.
func (w *streamSteady) check(_ int, perturb bool) (float64, error) {
	prec := w.last.Precision
	end := w.tick == len(w.graphs[w.cur].ticks)
	if end && w.ended < len(w.graphs) {
		s := w.st.Stats()
		w.tally["stream.cached"] += float64(s.Cached - w.base.Cached)
		w.tally["stream.batch"] += float64(s.Batch - w.base.Batch)
		w.tally["stream.repaired"] += float64(s.Repaired - w.base.Repaired)
	}
	if end {
		w.ended++
	}
	if !end && !perturb {
		return prec, nil
	}
	want, err := w.mirror(w.tick)
	if err != nil {
		return prec, err
	}
	return prec, sameResult(w.last, want, perturb)
}

func (w *streamSteady) counts() map[string]float64 {
	c := map[string]float64{}
	for k, v := range w.tally {
		c[k] = v
	}
	if solves := c["stream.cached"] + c["stream.batch"] + c["stream.repaired"]; solves > 0 {
		c["stream.cache_hit_ratio"] = c["stream.cached"] / solves
	}
	return c
}

// ---------------------------------------------------------------------------
// protocol-faulty: whole rounds of the leader protocol on the simulator
// with loss, retries, excision, authenticated reports, one inflating
// Byzantine reporter and a crash in every other round. The simulator and
// flooding dominate; the leader's solve is a small part of a round. Each
// round of the cycle runs on a graph of its own.

type protocolRound struct {
	cfg    dist.Config
	starts []float64
	net    *sim.Network
	seed   int64
	faults *sim.Faults
}

type protocolFaulty struct {
	liar   int
	rounds []protocolRound
	last   *dist.Outcome
	lastR  *protocolRound
	before [2]int64 // sim.events.processed, sim.messages.sent
	events []float64
	msgs   []float64
	tally  map[string]float64
	sum    string
}

// protocolCounters are the dist counters summed over the first cycle.
var protocolCounters = [...]string{"dist.reports.excised", "dist.reports.refloods", "dist.reports.authfail", "dist.computes.degraded"}

func setupProtocolFaulty(rng *rand.Rand, quick bool) (bench, error) {
	n, rounds := 48, 16
	if quick {
		n, rounds = 8, 2
	}
	const p, probes, retries, loss, lieMagnitude = 0.15, 4, 2, 0.01, 0.25
	d := newDigester()
	keySeed := rng.Int63()
	d.i(int(keySeed))
	keys := dist.DeriveKeys(n, keySeed)
	w := &protocolFaulty{liar: n - 1, tally: map[string]float64{}}
	for r := 0; r < rounds; r++ {
		pairs := sim.RandomConnected(rng, n, p)
		for _, e := range pairs {
			d.i(e.P, e.Q)
		}
		cfg := dist.Config{
			Leader: 0, Links: boundedLinks(pairs), Probes: probes, Spacing: 0.01,
			Warmup: startSpread + 0.5, Window: 1, ReportGrace: 2, Retries: retries,
			Excision: true, AuthKeys: keys,
		}
		starts := genStarts(rng, d, n)
		net, err := sim.NewNetwork(starts, pairs, func(sim.Pair) sim.LinkDelays {
			return sim.Symmetric(sim.Uniform{Lo: delayLB, Hi: delayUB})
		})
		if err != nil {
			return nil, err
		}
		faults := &sim.Faults{
			Loss:      loss,
			Byzantine: []sim.Byzantine{{Proc: w.liar, Strategy: sim.ByzInflate, Magnitude: lieMagnitude}},
		}
		if r%2 == 1 {
			// A crash before the victim's report time (real start + Warmup
			// + Window >= that): its report never arrives and the leader
			// computes degraded at the deadline.
			victim := 1 + rng.Intn(n-2)
			at := cfg.Warmup + cfg.Window*rng.Float64()
			faults.Crashes = []sim.Crash{{Proc: victim, At: at}}
			d.i(victim)
			d.f(at)
		}
		seed := rng.Int63()
		d.i(int(seed))
		w.rounds = append(w.rounds, protocolRound{cfg: cfg, starts: starts, net: net, seed: seed, faults: faults})
	}
	// Warm-up: one untimed round, checked like every op.
	if err := w.op(0, nil); err != nil {
		return nil, err
	}
	if _, err := w.check(-1, false); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	w.sum = d.sum()
	return w, nil
}

func (w *protocolFaulty) digest() string { return w.sum }
func (w *protocolFaulty) cycle() int     { return len(w.rounds) }
func (w *protocolFaulty) close()         {}

func (w *protocolFaulty) counter(name string) int64 { return obs.Default.Counter(name).Value() }

// prepare snapshots the counters the first cycle tallies.
func (w *protocolFaulty) prepare(g int, _ *layerTrace) error {
	if g < len(w.rounds) {
		w.before = [2]int64{w.counter("sim.events.processed"), w.counter("sim.messages.sent")}
		for _, name := range protocolCounters {
			w.tally[name] -= float64(w.counter(name))
		}
	}
	return nil
}

func (w *protocolFaulty) op(g int, lt *layerTrace) error {
	r := &w.rounds[g%len(w.rounds)]
	w.lastR = r
	run := sim.RunConfig{Seed: r.seed, Faults: r.faults}
	if lt == nil {
		out, _, err := dist.Run(r.net, r.cfg, run)
		w.last = out
		return err
	}
	cfg := r.cfg
	cfg.Trace = obs.NewTrace("round")
	run.Trace = cfg.Trace
	start := time.Now()
	out, _, err := dist.Run(r.net, cfg, run)
	lt.absorbRound(cfg.Trace.Spans(), start, time.Since(start))
	w.last = out
	return err
}

// check holds the leader to its promise: over every processor that is
// honest, synchronized and applied its correction, the realized
// discrepancy stays within the claimed precision.
func (w *protocolFaulty) check(g int, perturb bool) (float64, error) {
	if g >= 0 && g < len(w.rounds) {
		w.events = append(w.events, float64(w.counter("sim.events.processed")-w.before[0]))
		w.msgs = append(w.msgs, float64(w.counter("sim.messages.sent")-w.before[1]))
		for _, name := range protocolCounters {
			w.tally[name] += float64(w.counter(name))
		}
	}
	out := w.last
	if out.Synced == nil {
		return 0, fmt.Errorf("leader never computed")
	}
	lo, hi, covered := math.Inf(1), math.Inf(-1), 0
	for p, s := range w.lastR.starts {
		if p == w.liar || !out.Synced[p] || !out.Applied[p] {
			continue
		}
		x := out.Corrections[p]
		if perturb && covered == 0 {
			x++
		}
		covered++
		lo, hi = math.Min(lo, s-x), math.Max(hi, s-x)
	}
	if covered < 2 {
		return out.Precision, fmt.Errorf("only %d processors synchronized", covered)
	}
	if hi-lo > out.Precision+rhoSlack {
		return out.Precision, fmt.Errorf("realized discrepancy %v exceeds precision %v", hi-lo, out.Precision)
	}
	return out.Precision, nil
}

func (w *protocolFaulty) counts() map[string]float64 {
	c := map[string]float64{
		"sim.events_per_round":   median(w.events),
		"sim.messages_per_round": median(w.msgs),
	}
	for k, v := range w.tally {
		c[k] = v
	}
	return c
}

// ---------------------------------------------------------------------------
// sparse-2k: a ring of 66 cliques of 32 (2112 nodes) solved by
// core.SynchronizeSystem with the default Auto solver, which takes the CSR
// pipeline and escalates the component, larger than the 2048 nodes Auto
// closes exactly, to the hierarchical solver: the solver never builds an
// n x n matrix. The input trace.Table is n x n all the same (107 MB here).

type sparse2k struct {
	noCounts
	n     int
	links []core.Link
	tab   *trace.Table
	ref   *core.Result
	last  *core.Result
	sum   string
}

// ringOfCliques links every pair inside each clique, and node 0 of each
// clique to node 0 of the next (cliques >= 3).
func ringOfCliques(cliques, size int) []sim.Pair {
	var pairs []sim.Pair
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				pairs = append(pairs, sim.Pair{P: base + i, Q: base + j})
			}
		}
		a, b := base, (c+1)%cliques*size
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, sim.Pair{P: a, Q: b})
	}
	return pairs
}

func setupSparse2k(rng *rand.Rand, quick bool) (bench, error) {
	cliques, size := 66, 32
	if quick {
		cliques, size = 16, 8
	}
	const probes = 2
	d := newDigester()
	pairs := ringOfCliques(cliques, size)
	n := cliques * size
	w := &sparse2k{n: n, links: boundedLinks(pairs), tab: trace.NewTable(n, false)}
	starts := genStarts(rng, d, n)
	for _, m := range probeMessages(rng, d, starts, pairs, probes) {
		if err := w.tab.Add(trace.Sample{From: m.from, To: m.to, SendClock: m.sendClock, RecvClock: m.recvClock}); err != nil {
			return nil, err
		}
	}
	var err error
	if w.ref, err = core.SynchronizeSystem(n, w.links, w.tab, core.DefaultMLSOptions(), core.Options{}); err != nil {
		return nil, err
	}
	if err := rhoWithin(starts, w.ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	w.sum = d.sum()
	return w, nil
}

func (w *sparse2k) digest() string                 { return w.sum }
func (w *sparse2k) cycle() int                     { return 1 }
func (w *sparse2k) prepare(int, *layerTrace) error { return nil }
func (w *sparse2k) close()                         {}

func (w *sparse2k) op(_ int, lt *layerTrace) error {
	if lt == nil {
		var err error
		w.last, err = core.SynchronizeSystem(w.n, w.links, w.tab, core.DefaultMLSOptions(), core.Options{})
		return err
	}
	return lt.call("core.self", "core.SynchronizeSystem", func(ob obs.PhaseObserver) (err error) {
		w.last, err = core.SynchronizeSystem(w.n, w.links, w.tab, core.DefaultMLSOptions(), core.Options{Observer: ob})
		return err
	})
}

// check: the solve is deterministic, so every op must reproduce the first
// solve bit for bit (whose Rho <= Precision was checked at set-up).
func (w *sparse2k) check(_ int, perturb bool) (float64, error) {
	return w.last.Precision, sameResult(w.last, w.ref, perturb)
}
