package experiments

import (
	"math"
	"reflect"
	"testing"

	"clocksync"
	"clocksync/internal/scenario"
)

// TestF8Replayable: F8's instance round-trips through its JSON, and the
// public scenario entry point, given F8's options, replays it to the
// row's precision and corrections bit for bit and to every pair bound
// the table prints.
func TestF8Replayable(t *testing.T) {
	const seed = 12345
	s := f8Instance(seed)
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*parsed, s) {
		t.Fatalf("round trip changed the scenario:\n%s", data)
	}
	b, err := build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	row, err := simulate(b, f8Options)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := clocksync.RunScenarioJSON(data, clocksync.SimOptions{Centered: f8Options.Centered})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(rep.Result.Precision), math.Float64bits(row.res.Precision); got != want {
		t.Errorf("replayed precision %v, row %v", rep.Result.Precision, row.res.Precision)
	}
	if len(rep.Result.Corrections) != len(row.res.Corrections) {
		t.Fatalf("replayed %d corrections, row %d", len(rep.Result.Corrections), len(row.res.Corrections))
	}
	for p, x := range row.res.Corrections {
		if math.Float64bits(rep.Result.Corrections[p]) != math.Float64bits(x) {
			t.Errorf("correction %d: replayed %v, row %v", p, rep.Result.Corrections[p], x)
		}
	}
	tab, err := F8PairBounds(seed)
	if err != nil {
		t.Fatal(err)
	}
	for hops, cells := range tab.Rows {
		b, err := rep.Result.PairBound(0, hops+1)
		if err != nil {
			t.Fatal(err)
		}
		if cells[1] != f(b) {
			t.Errorf("%d hops: table prints %s, replay gives %s", hops+1, cells[1], f(b))
		}
	}
}
