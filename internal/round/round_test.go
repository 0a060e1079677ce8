package round

import (
	"math"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// instance is a 4-node complete graph under [0.05, 0.2] bounds with
// honest reports: the estimated delay p->q is d + S_p − S_q for a fixed
// true delay d per direction (Lemma 6.1).
func instance(t *testing.T) ([]core.Link, [][]DirReport) {
	t.Helper()
	const n = 4
	bounds, err := delay.SymmetricBounds(0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	starts := []float64{0, 0.3, -0.2, 0.45}
	var links []core.Link
	reports := make([][]DirReport, n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			if p < q {
				links = append(links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: bounds})
			}
			d := 0.05 + 0.01*float64(p+2*q)
			est := d + starts[p] - starts[q]
			reports[q] = append(reports[q], DirReport{From: model.ProcID(p), To: model.ProcID(q),
				Stats: trace.DirStats{Count: 3, Min: est, Max: est + 0.02}})
		}
	}
	return links, reports
}

func newRound(links []core.Link, excision bool) *Round {
	return New(Config{N: 4, Links: links, Excision: excision, Solve: core.Options{Root: 0}})
}

func TestValidate(t *testing.T) {
	ok := trace.DirStats{Count: 2, Min: 0.1, Max: 0.2}
	tests := []struct {
		name   string
		origin model.ProcID
		link   DirReport
	}{
		{"origin out of range", 4, DirReport{From: 0, To: 4, Stats: ok}},
		{"negative origin", -1, DirReport{From: 0, To: -1, Stats: ok}},
		{"stats for another node", 1, DirReport{From: 0, To: 2, Stats: ok}},
		{"sender out of range", 1, DirReport{From: 9, To: 1, Stats: ok}},
		{"sender is origin", 1, DirReport{From: 1, To: 1, Stats: ok}},
		{"zero count", 1, DirReport{From: 0, To: 1, Stats: trace.DirStats{Min: 0.1, Max: 0.2}}},
		{"NaN", 1, DirReport{From: 0, To: 1, Stats: trace.DirStats{Count: 1, Min: math.NaN(), Max: 0.2}}},
		{"infinite", 1, DirReport{From: 0, To: 1, Stats: trace.DirStats{Count: 1, Min: 0.1, Max: math.Inf(1)}}},
		{"inverted", 1, DirReport{From: 0, To: 1, Stats: trace.DirStats{Count: 1, Min: 0.2, Max: 0.1}}},
	}
	for _, tt := range tests {
		if Validate(4, tt.origin, []DirReport{tt.link}) == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
	if err := Validate(4, 1, []DirReport{{From: 0, To: 1, Stats: ok}}); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	if err := Validate(4, 1, nil); err != nil {
		t.Errorf("empty report rejected: %v", err)
	}
}

// TestAcceptKeepsFirstValidVersion: a malformed report is not stored, so
// the origin's genuine report still is; later versions never replace the
// first.
func TestAcceptKeepsFirstValidVersion(t *testing.T) {
	links, reports := instance(t)
	r := newRound(links, false)
	bad := []DirReport{{From: 0, To: 1, Stats: trace.DirStats{Count: 1, Min: 0.2, Max: 0.1}}}
	if stored, err := r.Accept(1, bad); stored || err == nil {
		t.Fatalf("malformed report: stored=%v err=%v", stored, err)
	}
	if stored, err := r.Accept(1, reports[1]); !stored || err != nil {
		t.Fatalf("genuine report: stored=%v err=%v", stored, err)
	}
	if stored, _ := r.Accept(1, reports[2][:1]); stored || r.Reports() != 1 {
		t.Fatalf("later version stored=%v, reports=%d", stored, r.Reports())
	}
}

// TestSolveHonestMatchesCore: on honest reports the round is exactly the
// centralized computation on the table it assembled, nothing excised.
func TestSolveHonestMatchesCore(t *testing.T) {
	links, reports := instance(t)
	r := newRound(links, true)
	for p := len(reports) - 1; p >= 0; p-- { // arrival order must not matter
		if _, err := r.Accept(model.ProcID(p), reports[p]); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Solve(nil)
	if res.Err != nil || res.Degraded || len(res.Excised) != 0 || len(res.Missing) != 0 {
		t.Fatalf("honest round: err=%v degraded=%v excised=%v missing=%v", res.Err, res.Degraded, res.Excised, res.Missing)
	}
	want, err := core.SynchronizeSystem(4, links, res.Table, core.DefaultMLSOptions(), core.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	for p := range want.Corrections {
		if math.Float64bits(want.Corrections[p]) != math.Float64bits(res.Corrections[p]) {
			t.Fatalf("correction %d: %v, centralized %v", p, res.Corrections[p], want.Corrections[p])
		}
	}
	if res.Record.Outcome != "ok" || res.Record.Synced != 4 || len(res.Record.Phases) == 0 {
		t.Fatalf("record %+v", res.Record)
	}
}

// TestSolveMissingDegrades: a silent reporter is missing and degrades the
// round; its links keep the other endpoint's statistics.
func TestSolveMissingDegrades(t *testing.T) {
	links, reports := instance(t)
	r := newRound(links, false)
	for p := 0; p < 3; p++ {
		if _, err := r.Accept(model.ProcID(p), reports[p]); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Solve(nil)
	if res.Err != nil || !res.Degraded || len(res.Missing) != 1 || res.Missing[0] != 3 {
		t.Fatalf("err=%v degraded=%v missing=%v", res.Err, res.Degraded, res.Missing)
	}
	if res.Record.Outcome != "degraded" || res.Record.Missing != 1 {
		t.Fatalf("record %+v", res.Record)
	}
}

// TestSolveExcisesLiarAndEquivocator: a reporter inflating every link
// past the round-trip envelope is excised; so is one caught with two
// versions. Without excision the same lie fails the round.
func TestSolveExcisesLiarAndEquivocator(t *testing.T) {
	links, reports := instance(t)
	lie := make([]DirReport, len(reports[2]))
	for i, dr := range reports[2] {
		dr.Stats.Min += 0.5
		dr.Stats.Max += 0.5
		lie[i] = dr
	}
	for _, excision := range []bool{false, true} {
		r := newRound(links, excision)
		for p := range reports {
			rep := reports[p]
			if p == 2 {
				rep = lie
			}
			if _, err := r.Accept(model.ProcID(p), rep); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Accept(3, reports[3][1:]); err != nil {
			t.Fatal(err)
		}
		res := r.Solve(nil)
		if !excision {
			if res.Err == nil || res.Record.Outcome != "failed" {
				t.Fatalf("undefended lie: err=%v record=%+v", res.Err, res.Record)
			}
			continue
		}
		if res.Err != nil || len(res.Excised) != 2 || res.Excised[0] != 2 || res.Excised[1] != 3 {
			t.Fatalf("err=%v excised=%v, want [2 3]", res.Err, res.Excised)
		}
		if len(res.Equivocators) != 1 || res.Equivocators[0] != 3 || !res.Degraded {
			t.Fatalf("equivocators=%v degraded=%v", res.Equivocators, res.Degraded)
		}
	}
}
