package clocksync_test

// Streaming/batch equivalence on the repository's real workloads: every
// example scenario and every D-series experiment input replays through a
// Stream, and the incremental Corrections/Precision must be bit-identical
// to a one-shot batch solve of the same observations. These tests are the
// integration-level counterpart of the randomized unit tests in
// internal/core and the FuzzStreamEquivalence target.

import (
	"math"
	"math/rand"
	"testing"

	"clocksync"
	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/drift"
	"clocksync/internal/model"
	"clocksync/internal/prob"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareStreamBatch asserts the stream's current Corrections is
// bit-identical to a fresh batch solve of tab.
func compareStreamBatch(t *testing.T, st *core.Stream, n int, links []core.Link, tab *trace.Table, opts core.Options) {
	t.Helper()
	got, err := st.Corrections()
	want, werr := core.SynchronizeSystem(n, links, tab, core.DefaultMLSOptions(), opts)
	if (err == nil) != (werr == nil) {
		t.Fatalf("stream err = %v, batch err = %v", err, werr)
	}
	if err != nil {
		return // both paths rejected the instance identically
	}
	if !bitEqual(got.Precision, want.Precision) {
		t.Fatalf("precision: stream %v, batch %v", got.Precision, want.Precision)
	}
	if len(got.Corrections) != len(want.Corrections) {
		t.Fatalf("corrections: stream %d entries, batch %d", len(got.Corrections), len(want.Corrections))
	}
	for p := range got.Corrections {
		if !bitEqual(got.Corrections[p], want.Corrections[p]) {
			t.Fatalf("correction p%d: stream %v, batch %v", p, got.Corrections[p], want.Corrections[p])
		}
	}
}

// replayThroughStream feeds samples one at a time into a cross-checking
// Stream and compares against batch at a mid-run checkpoint and at the end.
func replayThroughStream(t *testing.T, n int, links []core.Link, samples []trace.Sample, opts core.Options) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatal("no samples to replay")
	}
	st, err := core.NewStream(n, links, core.DefaultMLSOptions(), opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	defer st.Close()
	st.SetCrossCheck(true)
	tab := trace.NewTable(n, false)
	mid := len(samples) / 2
	for i, s := range samples {
		if err := st.Observe(s.From, s.To, s.SendClock, s.RecvClock); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		if err := tab.Add(s); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		if i+1 == mid {
			compareStreamBatch(t, st, n, links, tab, opts)
		}
	}
	compareStreamBatch(t, st, n, links, tab, opts)
}

// executionSamples flattens a simulated execution into delivery-ordered
// samples — the message stream a deployment would hand to Observe.
func executionSamples(t *testing.T, exec *model.Execution) []trace.Sample {
	t.Helper()
	msgs, err := exec.Messages()
	if err != nil {
		t.Fatalf("messages: %v", err)
	}
	out := make([]trace.Sample, len(msgs))
	for i, m := range msgs {
		out[i] = trace.Sample{From: m.From, To: m.To, SendClock: m.SendClock, RecvClock: m.RecvClock}
	}
	return out
}

// TestStreamReplaysExampleScenarios replays the scenario JSONs embedded in
// the examples/ programs (and the CLI starter) through a Stream. The
// faulty and observed examples share one scenario, listed once.
func TestStreamReplaysExampleScenarios(t *testing.T) {
	cases := []struct {
		name string
		json string
		opts core.Options
	}{
		{"wanmix", `{
			"processors": 8, "seed": 1993, "startSpread": 3,
			"topology": {"kind": "ring"},
			"defaultLink": {
				"assumption": {"kind": "symmetricBounds", "lb": 0.02, "ub": 0.06},
				"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.02, "hi": 0.06}}
			},
			"links": [
				{"p": 1, "q": 2,
				 "assumption": {"kind": "bias", "b": 0.01},
				 "delays": {"kind": "biasWindow", "base": 0.08, "width": 0.01}},
				{"p": 3, "q": 4,
				 "assumption": {"kind": "lowerOnly", "lbPQ": 0.03, "lbQP": 0.03},
				 "delays": {"kind": "symmetric", "sampler": {"kind": "shiftedExp", "min": 0.03, "mean": 0.05}}},
				{"p": 5, "q": 6,
				 "assumption": {"kind": "and", "parts": [
					{"kind": "symmetricBounds", "lb": 0.0, "ub": 0.2},
					{"kind": "bias", "b": 0.015}]},
				 "delays": {"kind": "biasWindow", "base": 0.05, "width": 0.015}}
			],
			"protocol": {"kind": "burst", "k": 6, "spacing": 0.004, "warmup": -1}
		}`, core.Options{Centered: true}},
		{"faulty-observed", `{
			"processors": 6, "seed": 42, "startSpread": 1,
			"topology": {"kind": "ring"},
			"defaultLink": {
				"assumption": {"kind": "symmetricBounds", "lb": 0.03, "ub": 0.09},
				"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.03, "hi": 0.09}}
			},
			"protocol": {"kind": "burst", "k": 1, "warmup": -1},
			"faults": {"crashes": [{"proc": 5, "at": 2.2}]}
		}`, core.Options{Centered: true}},
		{"leadersync", `{
			"processors": 9, "seed": 7, "startSpread": 2,
			"topology": {"kind": "grid", "w": 3, "h": 3},
			"defaultLink": {
				"assumption": {"kind": "symmetricBounds", "lb": 0.03, "ub": 0.09},
				"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.03, "hi": 0.09}}
			},
			"protocol": {"kind": "burst", "k": 1, "warmup": -1}
		}`, core.Options{Root: 4}},
		{"cli-starter", `{
			"processors": 4, "seed": 42, "startSpread": 2,
			"topology": {"kind": "ring"},
			"defaultLink": {
				"assumption": {"kind": "symmetricBounds", "lb": 0.01, "ub": 0.05},
				"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.01, "hi": 0.05}}
			},
			"protocol": {"kind": "burst", "k": 4, "spacing": 0.005, "warmup": -1}
		}`, core.Options{}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc, err := scenario.Parse([]byte(c.json))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			built, err := sc.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			replayThroughStream(t, sc.Processors, built.Links, executionSamples(t, exec), c.opts)
		})
	}
}

// publicObs is one Recorder.Observe call replayed at the API surface.
type publicObs struct {
	from, to             clocksync.ProcID
	sendClock, recvClock float64
}

// replayPublic runs the same observations through System.Synchronize and
// through the public Stream and compares the results bit for bit.
func replayPublic(t *testing.T, sys *clocksync.System, observations []publicObs, opts ...clocksync.Option) *clocksync.Result {
	t.Helper()
	rec := clocksync.NewRecorder(sys.N())
	st, err := sys.NewStream(opts...)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	defer st.Close()
	for i, o := range observations {
		if err := rec.Observe(o.from, o.to, o.sendClock, o.recvClock); err != nil {
			t.Fatalf("recorder observe %d: %v", i, err)
		}
		if err := st.Observe(o.from, o.to, o.sendClock, o.recvClock); err != nil {
			t.Fatalf("stream observe %d: %v", i, err)
		}
	}
	got, err := st.Corrections()
	if err != nil {
		t.Fatalf("stream corrections: %v", err)
	}
	got = got.Clone() // Synchronize below reuses nothing of the stream's arena, but keep the compare self-contained
	want, err := sys.Synchronize(rec, opts...)
	if err != nil {
		t.Fatalf("batch synchronize: %v", err)
	}
	if !bitEqual(got.Precision, want.Precision) {
		t.Fatalf("precision: stream %v, batch %v", got.Precision, want.Precision)
	}
	for p := range want.Corrections {
		if !bitEqual(got.Corrections[p], want.Corrections[p]) {
			t.Fatalf("correction p%d: stream %v, batch %v", p, got.Corrections[p], want.Corrections[p])
		}
	}
	return want
}

// TestStreamReplaysExamplePrograms replays the observation streams the
// hand-constructed examples (quickstart, asyncpair, biaslink, confidence,
// resync) generate, through the public Stream API.
func TestStreamReplaysExamplePrograms(t *testing.T) {
	pair := func(a clocksync.Assumption) *clocksync.System {
		sys, err := clocksync.NewSystem(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddLink(0, 1, a); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	t.Run("quickstart", func(t *testing.T) {
		const trueSkew = 0.4
		sys := pair(clocksync.MustSymmetricBounds(0.001, 0.005))
		replayPublic(t, sys, []publicObs{
			{0, 1, 10.0, 10.0 + 0.003 - trueSkew},
			{1, 0, 10.0, 10.0 + 0.003 + trueSkew},
		})
	})

	t.Run("asyncpair", func(t *testing.T) {
		const (
			trueSkew = 0.3
			minDelay = 0.010
			meanTail = 0.050
		)
		rng := rand.New(rand.NewSource(7))
		for _, k := range []int{1, 4, 16, 64} {
			var observations []publicObs
			for i := 0; i < k; i++ {
				tm := 10.0 + float64(i)
				d01 := minDelay + rng.ExpFloat64()*meanTail
				d10 := minDelay + rng.ExpFloat64()*meanTail
				observations = append(observations,
					publicObs{0, 1, tm, tm + d01 - trueSkew},
					publicObs{1, 0, tm, tm + d10 + trueSkew})
			}
			replayPublic(t, pair(clocksync.NoBounds()), observations, clocksync.Centered())
		}
	})

	t.Run("biaslink", func(t *testing.T) {
		const (
			trueSkew = -0.9
			base     = 0.240
			width    = 0.006
			k        = 12
		)
		rng := rand.New(rand.NewSource(42))
		var observations []publicObs
		for i := 0; i < k; i++ {
			tm := 5.0 + float64(i)
			d01 := base + width*rng.Float64()
			d10 := base + width*rng.Float64()
			observations = append(observations,
				publicObs{0, 1, tm, tm + d01 - trueSkew},
				publicObs{1, 0, tm, tm + d10 + trueSkew})
		}
		bias, err := clocksync.RTTBias(width)
		if err != nil {
			t.Fatal(err)
		}
		loose, err := clocksync.SymmetricBounds(0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []clocksync.Assumption{bias, loose, clocksync.NoBounds()} {
			replayPublic(t, pair(a), observations, clocksync.Centered())
		}
	})

	t.Run("confidence", func(t *testing.T) {
		distro := prob.LogNormal{Mu: -2.3, Sigma: 0.5}
		const (
			k        = 8
			trueSkew = 0.25
			runs     = 25
		)
		rng := rand.New(rand.NewSource(2))
		for _, eps := range []float64{0.5, 0.01} {
			bounds, err := prob.ConfidenceBounds(distro, distro, k, eps)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < runs; run++ {
				var observations []publicObs
				for i := 0; i < k; i++ {
					tm := 2.0 + float64(i)
					d01 := distro.Quantile(rng.Float64())
					d10 := distro.Quantile(rng.Float64())
					observations = append(observations,
						publicObs{0, 1, tm, tm + d01 - trueSkew},
						publicObs{1, 0, tm, tm + d10 + trueSkew})
				}
				// Out-of-bounds draws make some runs infeasible under the
				// quantile assumption; equivalence must hold either way, so
				// compare at the core layer where errors are checked too.
				links := []core.Link{{P: 0, Q: 1, A: bounds}}
				samples := make([]trace.Sample, len(observations))
				for i, o := range observations {
					samples[i] = trace.Sample{From: o.from, To: o.to, SendClock: o.sendClock, RecvClock: o.recvClock}
				}
				replayThroughStream(t, 2, links, samples, core.Options{Centered: true})
			}
		}
	})

	t.Run("resync", func(t *testing.T) {
		const (
			lb, ub = 0.002, 0.010
			off1   = 0.7
			rate1  = 1 + 12e-6
		)
		rng := rand.New(rand.NewSource(4))
		clock0 := func(t float64) float64 { return t }
		clock1 := func(t float64) float64 { return off1 + rate1*t }
		tm := 0.0
		for round := 0; round < 5; round++ {
			ref0, ref1 := clock0(tm), clock1(tm)
			var observations []publicObs
			for i := 0; i < 4; i++ {
				at := tm + float64(i)*0.05
				d01 := lb + (ub-lb)*rng.Float64()
				d10 := lb + (ub-lb)*rng.Float64()
				observations = append(observations,
					publicObs{0, 1, clock0(at) - ref0, clock1(at+d01) - ref1},
					publicObs{1, 0, clock1(at) - ref1, clock0(at+d10) - ref0})
			}
			replayPublic(t, pair(clocksync.MustSymmetricBounds(lb, ub)), observations, clocksync.Centered())
			tm += 100
		}
	})
}

// TestStreamReplaysD1Inputs regenerates the D1 drift experiment's inputs
// (same constants and seed path as internal/experiments) and replays the
// drifted observation stream: streaming must match the batch solve of
// drift.CollectDrifted's table bit for bit, for every drift rate.
func TestStreamReplaysD1Inputs(t *testing.T) {
	const (
		seed   = int64(12345)
		n      = 6
		lb, ub = 0.05, 0.2
	)
	for _, rho := range []float64{0, 1e-5, 1e-4, 1e-3, 5e-3} {
		rng := rand.New(rand.NewSource(seed + int64(rho*1e7)))
		starts := sim.UniformStarts(rng, n, 1)
		rates := make(drift.Rates, n)
		for p := range rates {
			rates[p] = 1 - rho + 2*rho*rng.Float64()
		}
		net, err := sim.NewNetwork(starts, sim.Ring(n), func(sim.Pair) sim.LinkDelays {
			return sim.Symmetric(sim.Uniform{Lo: lb, Hi: ub})
		})
		if err != nil {
			t.Fatalf("D1(rho=%v): %v", rho, err)
		}
		exec, err := sim.Run(net, sim.NewBurstFactory(3, 0.05, sim.SafeWarmup(starts)+0.5), sim.RunConfig{Seed: seed})
		if err != nil {
			t.Fatalf("D1(rho=%v): %v", rho, err)
		}
		horizon, err := drift.MaxClock(exec)
		if err != nil {
			t.Fatal(err)
		}
		inflated, err := drift.Inflate(clocksync.MustSymmetricBounds(lb, ub), rho, horizon)
		if err != nil {
			t.Fatal(err)
		}
		var links []core.Link
		for _, e := range sim.Ring(n) {
			links = append(links, core.Link{P: clocksync.ProcID(e.P), Q: clocksync.ProcID(e.Q), A: inflated})
		}
		// Re-express every timestamp through the drifted clocks, exactly as
		// drift.CollectDrifted does, but keeping the per-message stream.
		samples := executionSamples(t, exec)
		for i := range samples {
			samples[i].SendClock *= rates[samples[i].From]
			samples[i].RecvClock *= rates[samples[i].To]
		}
		replayThroughStream(t, n, links, samples, core.Options{Centered: true})
	}
}

// TestStreamReplaysD2Inputs regenerates the D2 fault-tolerance runs (flood
// loss and crash series) and replays each run's delivered messages through
// Observe, asserting bit-identity against the batch solve of the same
// messages. Only messages into processors whose report reached the leader
// are replayed, so the replayed table is degraded the way the leader's is:
// a crashed processor contributes no incoming statistics.
func TestStreamReplaysD2Inputs(t *testing.T) {
	const (
		seed   = int64(12345)
		n      = 8
		lb, ub = 0.05, 0.2
		k      = 3
	)
	rng := rand.New(rand.NewSource(seed))
	pairs := sim.Ring(n)
	var links []core.Link
	for _, e := range pairs {
		links = append(links, core.Link{P: clocksync.ProcID(e.P), Q: clocksync.ProcID(e.Q), A: clocksync.MustSymmetricBounds(lb, ub)})
	}
	floodOnly := func(payload any) bool {
		switch payload.(type) {
		case dist.Report, dist.ResultMsg:
			return true
		}
		return false
	}

	runCase := func(name string, retries int, mkFaults func(starts []float64, cfg dist.Config) *sim.Faults) {
		starts := sim.UniformStarts(rng, n, 1)
		net, err := sim.NewNetwork(starts, pairs, func(sim.Pair) sim.LinkDelays {
			return sim.Symmetric(sim.Uniform{Lo: lb, Hi: ub})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := dist.Config{
			Leader: 0, Links: links, Probes: k, Spacing: 0.01,
			Warmup: sim.SafeWarmup(starts) + 0.5, Window: 1,
			ReportGrace: 2, Retries: retries,
		}
		out, exec, err := dist.Run(net, cfg, sim.RunConfig{Seed: rng.Int63(), Faults: mkFaults(starts, cfg)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		missing := make(map[clocksync.ProcID]bool, len(out.Missing))
		for _, p := range out.Missing {
			missing[p] = true
		}
		var samples []trace.Sample
		for _, s := range executionSamples(t, exec) {
			if !missing[s.To] {
				samples = append(samples, s)
			}
		}
		replayThroughStream(t, n, links, samples, core.Options{Root: 0})
	}

	for _, loss := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		loss := loss
		runCase("flood loss", 2, func([]float64, dist.Config) *sim.Faults {
			if loss == 0 {
				return nil
			}
			return &sim.Faults{Loss: loss, LossFilter: floodOnly}
		})
	}
	for _, crashes := range []int{1, 2, 3} {
		crashes := crashes
		runCase("crashes", 0, func(starts []float64, cfg dist.Config) *sim.Faults {
			fl := &sim.Faults{}
			for i := 0; i < crashes; i++ {
				proc := n - 1 - i
				fl.Crashes = append(fl.Crashes, sim.Crash{Proc: proc, At: starts[proc] + cfg.Warmup + 0.5})
			}
			return fl
		})
	}
}
