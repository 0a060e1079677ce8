package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// streamSample is one synthetic message with its observable clocks.
type streamSample struct {
	from, to   model.ProcID
	send, recv float64
}

// randomStreamInstance builds a random feasible system: hidden start
// offsets, a connected link topology with mixed assumption types, and a
// shuffled message sequence whose true delays respect the assumptions.
func randomStreamInstance(t *testing.T, rng *rand.Rand, n, msgs int) ([]Link, []streamSample) {
	t.Helper()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 5
	}
	type edge struct{ p, q int }
	var edges []edge
	var links []Link
	addLink := func(p, q int) {
		var a delay.Assumption
		switch rng.Intn(3) {
		case 0:
			b, err := delay.SymmetricBounds(0.2, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			a = b
		case 1:
			r, err := delay.NewRTTBias(2.8)
			if err != nil {
				t.Fatal(err)
			}
			a = r
		default:
			b, err := delay.SymmetricBounds(0.2, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			r, err := delay.NewRTTBias(2.8)
			if err != nil {
				t.Fatal(err)
			}
			in, err := delay.NewIntersect(b, r)
			if err != nil {
				t.Fatal(err)
			}
			a = in
		}
		if rng.Intn(2) == 0 {
			p, q = q, p
		}
		links = append(links, Link{P: model.ProcID(p), Q: model.ProcID(q), A: a})
		edges = append(edges, edge{p, q})
	}
	for i := 0; i+1 < n; i++ {
		addLink(i, i+1)
	}
	extra := rng.Intn(n + 1)
	for i := 0; i < extra; i++ {
		p, q := rng.Intn(n), rng.Intn(n)
		if p != q {
			addLink(p, q)
		}
	}

	// True delays in [0.2+eps, 3.0-eps] with spread < 2.8 keep every
	// assumption mix admissible; estimated delays fold in the offsets.
	samples := make([]streamSample, 0, msgs)
	for i := 0; i < msgs; i++ {
		e := edges[rng.Intn(len(edges))]
		p, q := e.p, e.q
		if rng.Intn(2) == 0 {
			p, q = q, p
		}
		d := 0.3 + 2.4*rng.Float64()
		send := 10 * rng.Float64()
		samples = append(samples, streamSample{
			from: model.ProcID(p),
			to:   model.ProcID(q),
			send: send,
			recv: send + d + x[q] - x[p],
		})
	}
	return links, samples
}

// batchReference replays samples into a table and runs the batch pipeline.
func batchReference(t *testing.T, n int, links []Link, samples []streamSample, opts Options) *Result {
	t.Helper()
	tab := trace.NewTable(n, false)
	for _, s := range samples {
		if err := tab.Add(trace.Sample{From: s.from, To: s.to, SendClock: s.send, RecvClock: s.recv}); err != nil {
			t.Fatalf("batch table: %v", err)
		}
	}
	res, err := SynchronizeSystem(n, links, tab, DefaultMLSOptions(), opts)
	if err != nil {
		t.Fatalf("batch solve: %v", err)
	}
	return res
}

// TestStreamMatchesBatch replays random instances through Stream with the
// internal cross-check enabled and, at random checkpoints, additionally
// compares against an independently computed batch solve bit for bit.
func TestStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(9)
		links, samples := randomStreamInstance(t, rng, n, 40+rng.Intn(200))
		opts := Options{Parallelism: 1, Centered: trial%2 == 0}
		st, err := NewStream(n, links, DefaultMLSOptions(), opts)
		if err != nil {
			t.Fatalf("trial %d: NewStream: %v", trial, err)
		}
		st.SetCrossCheck(true)
		for i, s := range samples {
			if err := st.Observe(s.from, s.to, s.send, s.recv); err != nil {
				t.Fatalf("trial %d: observe %d: %v", trial, i, err)
			}
			if rng.Intn(17) != 0 && i != len(samples)-1 {
				continue
			}
			res, err := st.Corrections()
			if err != nil {
				t.Fatalf("trial %d after %d obs: %v", trial, i+1, err)
			}
			want := batchReference(t, n, links, samples[:i+1], opts)
			if err := compareResults(res, want); err != nil {
				t.Fatalf("trial %d after %d obs: stream vs independent batch: %v", trial, i+1, err)
			}
		}
		st.Close()
	}
}

// TestStreamCachedPath drives a converged two-node system and checks that
// repeat observations are served from the certified cache, bit-identical
// to batch (the cross-check enforces it on every call).
func TestStreamCachedPath(t *testing.T) {
	b, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	links := []Link{{P: 0, Q: 1, A: b}}
	st, err := NewStream(2, links, DefaultMLSOptions(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCrossCheck(true)

	// Fixed clocks: identical repeats cannot move min/max statistics.
	if err := st.Observe(0, 1, 0, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(1, 0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	first, err := st.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	firstPrec := first.Precision
	firstCorr := append([]float64(nil), first.Corrections...)

	for i := 0; i < 10; i++ {
		if err := st.Observe(0, 1, 0, 2.5); err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(1, 0, 1, 2.5); err != nil {
			t.Fatal(err)
		}
		res, err := st.Corrections()
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if res.Precision != firstPrec {
			t.Fatalf("repeat %d: precision %v, want %v", i, res.Precision, firstPrec)
		}
		for p, c := range res.Corrections {
			if c != firstCorr[p] {
				t.Fatalf("repeat %d: corrections[%d] = %v, want %v", i, p, c, firstCorr[p])
			}
		}
	}
	stats := st.Stats()
	if stats.Batch != 1 {
		t.Fatalf("batch solves = %d, want 1", stats.Batch)
	}
	if stats.Cached != 10 {
		t.Fatalf("cached solves = %d, want 10", stats.Cached)
	}
}

// TestStreamWideInertTickCached dirties more than a quarter of the directed
// edges in one tick, every one of them certifiably inert: the tick must be
// served from the cache however much of the graph it touches, and the
// cross-check must find it bit-identical to batch.
func TestStreamWideInertTickCached(t *testing.T) {
	ring, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	slack, err := delay.SymmetricBounds(0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var links []Link
	var samples []streamSample
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		links = append(links, Link{P: model.ProcID(i), Q: model.ProcID(j), A: ring})
		samples = append(samples, streamSample{model.ProcID(i), model.ProcID(j), 0, 2}, streamSample{model.ProcID(j), model.ProcID(i), 0, 2})
	}
	// Slack chords from p0: their shifts sit far above every ring path.
	for c := 2; c < n-1; c++ {
		links = append(links, Link{P: 0, Q: model.ProcID(c), A: slack})
		samples = append(samples, streamSample{0, model.ProcID(c), 0, 5e5}, streamSample{model.ProcID(c), 0, 0, 5e5})
	}
	st, err := NewStream(n, links, DefaultMLSOptions(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCrossCheck(true)
	for _, s := range samples {
		if err := st.Observe(s.from, s.to, s.send, s.recv); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Corrections(); err != nil {
		t.Fatal(err)
	}

	// One tick tightens both directions of every chord.
	tick := len(samples)
	for c := 2; c < n-1; c++ {
		samples = append(samples, streamSample{0, model.ProcID(c), 0, 5e5 - 1}, streamSample{model.ProcID(c), 0, 0, 5e5 - 1})
	}
	for _, s := range samples[tick:] {
		if err := st.Observe(s.from, s.to, s.send, s.recv); err != nil {
			t.Fatal(err)
		}
	}
	dirtyEdges := 0
	for _, idx := range st.dirty {
		if st.pairs[idx].dirtyPQ {
			dirtyEdges++
		}
		if st.pairs[idx].dirtyQP {
			dirtyEdges++
		}
	}
	if total := 2 * len(st.pairs); 4*dirtyEdges <= total {
		t.Fatalf("tick dirtied %d of %d directed edges, want more than a quarter", dirtyEdges, total)
	}

	before := st.Stats()
	res, err := st.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Cached != before.Cached+1 || got.Batch != before.Batch {
		t.Fatalf("stats %+v after %+v: wide inert tick not served from the cache", got, before)
	}
	want := batchReference(t, n, links, samples, Options{Parallelism: 1})
	if err := compareResults(res, want); err != nil {
		t.Fatalf("stream vs batch: %v", err)
	}
}

// TestStreamGrowingAssumptionFallsBack checks that a non-monotone custom
// assumption routes every solve through the batch path instead of
// producing stale incremental answers.
func TestStreamGrowingAssumptionFallsBack(t *testing.T) {
	links := []Link{{P: 0, Q: 1, A: growingStreamAssumption{}}}
	st, err := NewStream(2, links, MLSOptions{}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if err := st.Observe(0, 1, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Observe(1, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		res, err := st.Corrections()
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		// The growing model's shift equals the observation count, so the
		// precision must track it — a stale cache would freeze it.
		want := float64(2 * (i + 1))
		if res.Precision != want {
			t.Fatalf("solve %d: precision %v, want %v", i, res.Precision, want)
		}
	}
	if got := st.Stats().Batch; got != 3 {
		t.Fatalf("batch solves = %d, want 3", got)
	}
}

// growingStreamAssumption's shifts equal the total observation count: a
// deliberately non-monotone custom model.
type growingStreamAssumption struct{}

func (growingStreamAssumption) MLS(pq, qp trace.DirStats) (float64, float64) {
	c := float64(pq.Count + qp.Count)
	return c, c
}
func (growingStreamAssumption) Admits(pq, qp []float64) bool { return true }
func (growingStreamAssumption) String() string               { return "growing" }

// TestStreamValidation covers the Observe/NewStream error paths.
func TestStreamValidation(t *testing.T) {
	b, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	links := []Link{{P: 0, Q: 1, A: b}}
	if _, err := NewStream(0, nil, MLSOptions{}, Options{}); err == nil {
		t.Fatal("NewStream(0) succeeded")
	}
	if _, err := NewStream(2, []Link{{P: 0, Q: 5, A: b}}, MLSOptions{}, Options{}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	st, err := NewStream(2, links, DefaultMLSOptions(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name       string
		from, to   model.ProcID
		send, recv float64
		want       string
	}{
		{"range", 0, 7, 0, 1, "out of range"},
		{"self", 1, 1, 0, 1, "self-sample"},
		{"nan", 0, 1, math.NaN(), 1, "invalid estimated delay"},
		{"inf", 0, 1, 0, math.Inf(1), "invalid estimated delay"},
	} {
		err := st.Observe(tc.from, tc.to, tc.send, tc.recv)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Bad root surfaces at solve time, as in the batch pipeline.
	bad, err := NewStream(2, links, DefaultMLSOptions(), Options{Root: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Corrections(); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestStreamUnlinkedPairs checks both ambient-assumption regimes for
// observations on pairs without declared links.
func TestStreamUnlinkedPairs(t *testing.T) {
	b, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	links := []Link{{P: 0, Q: 1, A: b}}

	// With AssumeNonnegative, traffic on (1,2) constrains it (Corollary
	// 6.4) and connects the system.
	st, err := NewStream(3, links, DefaultMLSOptions(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCrossCheck(true)
	obs := []streamSample{
		{0, 1, 0, 2}, {1, 0, 0, 2},
		{1, 2, 0, 1}, {2, 1, 0, 1},
	}
	for _, s := range obs {
		if err := st.Observe(s.from, s.to, s.send, s.recv); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Precision, 1) {
		t.Fatal("nonneg ambient assumption did not connect the system")
	}
	want := batchReference(t, 3, links, obs, Options{Parallelism: 1})
	if err := compareResults(res, want); err != nil {
		t.Fatalf("stream vs batch: %v", err)
	}

	// Without it, the unlinked traffic constrains nothing.
	st2, err := NewStream(3, links, MLSOptions{}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, s := range obs {
		if err := st2.Observe(s.from, s.to, s.send, s.recv); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := st2.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res2.Precision, 1) {
		t.Fatalf("precision %v without ambient assumption, want +Inf", res2.Precision)
	}
}

// TestStreamResultReuse documents the aliasing contract: the returned
// Result is invalidated by the next Corrections call; Clone detaches it.
func TestStreamResultReuse(t *testing.T) {
	b, err := delay.SymmetricBounds(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(2, []Link{{P: 0, Q: 1, A: b}}, DefaultMLSOptions(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Observe(0, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(1, 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	res, err := st.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	// Move the estimates and solve again: the clone must be unaffected.
	if err := st.Observe(0, 1, 0, 1.2); err != nil {
		t.Fatal(err)
	}
	if err := st.Observe(1, 0, 0, 1.2); err != nil {
		t.Fatal(err)
	}
	res2, err := st.Corrections()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Precision == clone.Precision {
		t.Fatalf("precision did not move (%v); tightening had no effect", clone.Precision)
	}
	for i := range clone.Corrections {
		if clone.Corrections[i] != res.Corrections[i] && &clone.Corrections[i] == &res.Corrections[i] {
			t.Fatal("clone aliases the stream arena")
		}
	}
}
