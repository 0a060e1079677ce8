package trace

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"clocksync/internal/model"
	"clocksync/internal/sim"
)

func TestDirStatsBasics(t *testing.T) {
	d := NewDirStats()
	if !d.Empty() {
		t.Error("NewDirStats not empty")
	}
	if !math.IsInf(d.Min, 1) || !math.IsInf(d.Max, -1) {
		t.Errorf("empty stats = %v, want Min=+Inf Max=-Inf", d)
	}
	d.Add(3)
	d.Add(1)
	d.Add(2)
	if d.Count != 3 || d.Min != 1 || d.Max != 3 {
		t.Errorf("stats = %+v, want n=3 min=1 max=3", d)
	}
}

func TestDirStatsZeroValueAdd(t *testing.T) {
	var d DirStats // zero value: Count==0 makes Add initialize correctly
	d.Add(-2)
	if d.Count != 1 || d.Min != -2 || d.Max != -2 {
		t.Errorf("stats = %+v, want n=1 min=-2 max=-2", d)
	}
}

func TestDirStatsMerge(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
	}{
		{name: "both empty"},
		{name: "left empty", b: []float64{1, 2}},
		{name: "right empty", a: []float64{3}},
		{name: "overlap", a: []float64{1, 5}, b: []float64{0, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b, both := NewDirStats(), NewDirStats(), NewDirStats()
			for _, x := range tt.a {
				a.Add(x)
				both.Add(x)
			}
			for _, x := range tt.b {
				b.Add(x)
				both.Add(x)
			}
			a.Merge(b)
			if a != both {
				t.Errorf("merged = %+v, want %+v", a, both)
			}
		})
	}
}

func TestDirStatsString(t *testing.T) {
	d := NewDirStats()
	if got := d.String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
	d.Add(1.5)
	if got := d.String(); got != "{n=1 min=1.5 max=1.5}" {
		t.Errorf("String() = %q", got)
	}
}

func TestTableAddValidation(t *testing.T) {
	tab := NewTable(2, false)
	tests := []struct {
		name    string
		s       Sample
		wantErr bool
	}{
		{name: "ok", s: Sample{From: 0, To: 1, SendClock: 1, RecvClock: 2}},
		{name: "self", s: Sample{From: 1, To: 1}, wantErr: true},
		{name: "from out of range", s: Sample{From: 5, To: 1}, wantErr: true},
		{name: "to out of range", s: Sample{From: 0, To: -1}, wantErr: true},
		{name: "nan", s: Sample{From: 0, To: 1, RecvClock: math.NaN()}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tab.Add(tt.s)
			if (err != nil) != tt.wantErr {
				t.Errorf("Add error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTableRawRetention(t *testing.T) {
	tab := NewTable(2, true)
	for _, d := range []float64{0.5, 0.3, 0.9} {
		if err := tab.Add(Sample{From: 0, To: 1, SendClock: 0, RecvClock: d}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	raw := tab.Raw(0, 1)
	if len(raw) != 3 {
		t.Fatalf("len(Raw) = %d, want 3", len(raw))
	}
	if tab.Raw(1, 0) != nil {
		t.Error("Raw(silent link) != nil")
	}
	noRaw := NewTable(2, false)
	_ = noRaw.Add(Sample{From: 0, To: 1, RecvClock: 1})
	if noRaw.Raw(0, 1) != nil {
		t.Error("Raw != nil with retention off")
	}
}

func TestTablePairsAndActive(t *testing.T) {
	tab := NewTable(3, false)
	_ = tab.Add(Sample{From: 0, To: 1, RecvClock: 1})
	if !tab.Active(0, 1) || !tab.Active(1, 0) {
		t.Error("Active(0,1)/(1,0) = false, want true")
	}
	if tab.Active(1, 2) {
		t.Error("Active(1,2) = true, want false")
	}
	var visited [][2]model.ProcID
	tab.Pairs(func(p, q model.ProcID, pq, qp DirStats) {
		visited = append(visited, [2]model.ProcID{p, q})
	})
	// Both orientations of the active pair are visited (and nothing else).
	if len(visited) != 2 {
		t.Fatalf("Pairs visited %v, want both orientations of (0,1)", visited)
	}
}

// TestTableConcurrentReaders: reads never mutate the table, so several
// goroutines may walk and query one table at once (run under -race).
func TestTableConcurrentReaders(t *testing.T) {
	tab := NewTable(6, true)
	for i := 0; i < 40; i++ { // i%6 != (5i+1)%6: 4i+1 is odd
		if err := tab.Add(Sample{From: model.ProcID(i % 6), To: model.ProcID((i*5 + 1) % 6), RecvClock: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count := 0
			tab.Pairs(func(p, q model.ProcID, pq, _ DirStats) {
				count += pq.Count + len(tab.Raw(p, q))
				if !tab.Active(q, p) || tab.Stats(p, q) != pq {
					t.Errorf("Pairs(%d,%d) disagrees with Stats/Active", p, q)
				}
			})
			if count != 2*40 { // each sample once in Count, once in Raw
				t.Errorf("walk counted %d, want 80", count)
			}
			if got, err := json.Marshal(tab); err != nil || string(got) != string(want) {
				t.Errorf("concurrent Marshal = %s, %v", got, err)
			}
		}()
	}
	wg.Wait()
}

// buildExec creates an execution with one message in each direction between
// adjacent processors of a 3-line, with known delays.
func buildExec(t *testing.T) *model.Execution {
	t.Helper()
	starts := []float64{0, 10, -5}
	b := model.NewBuilder(starts)
	sendAt := 20.0
	add := func(from, to model.ProcID, d float64) {
		t.Helper()
		if _, err := b.AddMessageDelay(from, to, sendAt, d); err != nil {
			t.Fatalf("AddMessageDelay: %v", err)
		}
	}
	add(0, 1, 1.0)
	add(1, 0, 2.0)
	add(1, 2, 0.5)
	add(2, 1, 0.25)
	e, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return e
}

func TestCollectEstimated(t *testing.T) {
	e := buildExec(t)
	tab, err := Collect(e, true)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	// d~(0->1) = d + S0 - S1 = 1 + 0 - 10 = -9.
	if got := tab.Stats(0, 1).Min; got != -9 {
		t.Errorf("d~min(0,1) = %v, want -9", got)
	}
	// d~(1->0) = 2 + 10 - 0 = 12.
	if got := tab.Stats(1, 0).Min; got != 12 {
		t.Errorf("d~min(1,0) = %v, want 12", got)
	}
	// d~(2->1) = 0.25 - 5 - 10 = -14.75.
	if got := tab.Stats(2, 1).Max; got != -14.75 {
		t.Errorf("d~max(2,1) = %v, want -14.75", got)
	}
}

func TestCollectActualSeesTrueDelays(t *testing.T) {
	e := buildExec(t)
	tab, err := CollectActual(e, false)
	if err != nil {
		t.Fatalf("CollectActual: %v", err)
	}
	if got := tab.Stats(0, 1).Min; got != 1.0 {
		t.Errorf("dmin(0,1) = %v, want 1", got)
	}
	if got := tab.Stats(2, 1).Max; got != 0.25 {
		t.Errorf("dmax(2,1) = %v, want 0.25", got)
	}
}

// TestEstimatedEqualsActualPlusSkew ties Collect and CollectActual together:
// d~ = d + S_from - S_to for every directed pair (Lemma 6.1).
func TestEstimatedEqualsActualPlusSkew(t *testing.T) {
	e := buildExec(t)
	est, err := Collect(e, false)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	act, err := CollectActual(e, false)
	if err != nil {
		t.Fatalf("CollectActual: %v", err)
	}
	starts := e.Starts()
	act.Pairs(func(p, q model.ProcID, pq, qp DirStats) {
		if pq.Empty() {
			return
		}
		skew := starts[p] - starts[q]
		got := est.Stats(p, q)
		if math.Abs(got.Min-(pq.Min+skew)) > 1e-12 || math.Abs(got.Max-(pq.Max+skew)) > 1e-12 {
			t.Errorf("pair (%d,%d): est=%v act=%v skew=%v", p, q, got, pq, skew)
		}
	})
}

// Property: for any sample, EstimatedDelay is RecvClock - SendClock.
func TestSampleEstimatedDelayQuick(t *testing.T) {
	f := func(send, recv float64) bool {
		s := Sample{From: 0, To: 1, SendClock: send, RecvClock: recv}
		got := s.EstimatedDelay()
		want := recv - send
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTableStridedHub drives one hub whose destinations are every 64th
// processor, all congruent modulo the 64-slot window its 17 entries fill,
// plus their replies and a second, merged row, and checks the table
// against the naive grid on Stats, Active, Pairs order and JSON.
func TestTableStridedHub(t *testing.T) {
	const dests, stride = 17, 64
	n := dests*stride + 1
	tab, ref := NewTable(n, false), newRefTable(n, false)
	add := func(from, to int, v float64) {
		t.Helper()
		if err := tab.Add(Sample{From: model.ProcID(from), To: model.ProcID(to), RecvClock: v}); err != nil {
			t.Fatal(err)
		}
		ref.add(from, to, v)
	}
	for k := 1; k <= dests; k++ {
		add(0, k*stride, float64(k))
		if k%3 == 0 {
			add(k*stride, 0, -float64(k))
		}
		add(0, k*stride, float64(k)/2)
		s := DirStats{Count: k, Min: float64(-k), Max: float64(k)}
		if err := tab.MergeStats(1, model.ProcID(k*stride), s); err != nil {
			t.Fatal(err)
		}
		ref.merge(1, k*stride, s)
	}
	sameAsRef(t, tab, ref)
}

// TestTableAddOpenPairAllocs: once a pair is open, Add allocates nothing
// (raw retention off).
func TestTableAddOpenPairAllocs(t *testing.T) {
	tab := NewTable(100, false)
	for to := 1; to < 100; to++ { // grow p0's window past its first sizes
		if err := tab.Add(Sample{From: 0, To: model.ProcID(to), RecvClock: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s := Sample{From: 0, To: 64, RecvClock: 2}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tab.Add(s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Add on an open pair: %v allocs, want 0", allocs)
	}
}

// TestTableCellLimit lowers the cell cap, so no test allocates 2^31
// cells: a new pair past the cap fails in Add and in MergeStats and
// leaves the table as it was, while the open pairs, and the reverse
// direction of an open pair, which owns its cell already, still take
// samples.
func TestTableCellLimit(t *testing.T) {
	defer func(m int) { maxCells = m }(maxCells)
	maxCells = 5 // the empty cell and two pairs
	tab := NewTable(4, false)
	for _, s := range []Sample{{From: 0, To: 1}, {From: 2, To: 3}, {From: 1, To: 0}, {From: 0, To: 1, RecvClock: 1}} {
		if err := tab.Add(s); err != nil {
			t.Fatalf("Add(p%d->p%d) = %v", s.From, s.To, err)
		}
	}
	before, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(Sample{From: 1, To: 2}); err == nil {
		t.Error("Add opened a pair past the cell cap")
	}
	if err := tab.MergeStats(3, 0, DirStats{Count: 1}); err == nil {
		t.Error("MergeStats opened a pair past the cell cap")
	}
	if err := tab.Add(Sample{From: 3, To: 2}); err != nil {
		t.Errorf("reverse of an open pair: %v", err)
	}
	if tab.NumPairs() != 2 || tab.Active(1, 2) || tab.Active(0, 3) {
		t.Errorf("failed opens changed the table: %d pairs", tab.NumPairs())
	}
	after, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(string(before), `]}`, `,{"from":3,"to":2,"count":1,"min":0,"max":0}]}`, 1)
	if string(after) != want {
		t.Errorf("JSON after the failed opens:\n got %s\nwant %s", after, want)
	}
}

// TestTableMemoryLinear fills a table for a 10,016-processor ring of
// 313 cliques of 32 with 2 samples per direction. The live heap it holds
// must stay linear in its 311,122 observed directions: under 51 MB, an
// eighth of the 410 MB the same table held with an n x n int32 index.
func TestTableMemoryLinear(t *testing.T) {
	const cliques, size = 313, 32
	pairs := sim.RingOfCliques(cliques, size)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	tab := NewTable(cliques*size, false)
	for _, e := range pairs {
		for k := 0; k < 4; k++ {
			from, to := e.P, e.Q
			if k%2 == 1 {
				from, to = e.Q, e.P
			}
			if err := tab.Add(Sample{From: model.ProcID(from), To: model.ProcID(to), RecvClock: float64(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := live() - base
	runtime.KeepAlive(tab)
	t.Logf("table holds %.1f MB for %d directions (%.0f B each)", float64(held)/1e6, 2*len(pairs), float64(held)/float64(2*len(pairs)))
	const limit = 410e6 / 8
	if float64(held) > limit {
		t.Errorf("table holds %.1f MB, want < %.1f MB", float64(held)/1e6, limit/1e6)
	}
}
