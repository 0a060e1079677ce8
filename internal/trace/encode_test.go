package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"clocksync/internal/model"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tab := NewTable(3, false)
	samples := []Sample{
		{From: 0, To: 1, SendClock: 1, RecvClock: 1.5},
		{From: 0, To: 1, SendClock: 2, RecvClock: 2.2},
		{From: 1, To: 0, SendClock: 1, RecvClock: 3},
		{From: 2, To: 1, SendClock: 0, RecvClock: -4},
	}
	for _, s := range samples {
		if err := tab.Add(s); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.N() != 3 {
		t.Fatalf("N = %d, want 3", back.N())
	}
	for p := model.ProcID(0); p < 3; p++ {
		for q := model.ProcID(0); q < 3; q++ {
			if tab.Stats(p, q) != back.Stats(p, q) {
				t.Errorf("stats[%d][%d]: %v vs %v", p, q, tab.Stats(p, q), back.Stats(p, q))
			}
		}
	}
}

// TestTableJSONBytes pins the wire form: one entry per observed directed
// pair sorted by (from, to), whatever order the traffic arrived in, and
// "pairs": null for a silent table.
func TestTableJSONBytes(t *testing.T) {
	tab := NewTable(4, true)
	for _, s := range []Sample{
		{From: 2, To: 1, SendClock: 0.1, RecvClock: 0.3},
		{From: 0, To: 3, SendClock: 1, RecvClock: -2.5},
		{From: 1, To: 2, SendClock: 5, RecvClock: 5.125},
		{From: 2, To: 1, SendClock: 1, RecvClock: 1e-9},
		{From: 3, To: 0, SendClock: 0, RecvClock: 1e21},
		{From: 0, To: 1, SendClock: 0, RecvClock: 7},
	} {
		if err := tab.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.MergeStats(3, 2, DirStats{Count: 4, Min: -0.75, Max: 12}); err != nil {
		t.Fatal(err)
	}
	const want = `{"processors":4,"pairs":[` +
		`{"from":0,"to":1,"count":1,"min":7,"max":7},` +
		`{"from":0,"to":3,"count":1,"min":-3.5,"max":-3.5},` +
		`{"from":1,"to":2,"count":1,"min":0.125,"max":0.125},` +
		`{"from":2,"to":1,"count":2,"min":-0.999999999,"max":0.19999999999999998},` +
		`{"from":3,"to":0,"count":1,"min":1e+21,"max":1e+21},` +
		`{"from":3,"to":2,"count":4,"min":-0.75,"max":12}]}`
	for _, x := range []*Table{tab, decode(t, want)} {
		if got, err := json.Marshal(x); err != nil || string(got) != want {
			t.Errorf("Marshal = %s, %v\nwant %s", got, err, want)
		}
	}
	if got, err := json.Marshal(NewTable(3, false)); err != nil || string(got) != `{"processors":3,"pairs":null}` {
		t.Errorf("empty Marshal = %s, %v", got, err)
	}
}

func decode(t *testing.T, data string) *Table {
	t.Helper()
	var tab Table
	if err := json.Unmarshal([]byte(data), &tab); err != nil {
		t.Fatal(err)
	}
	return &tab
}

func TestTableJSONEmpty(t *testing.T) {
	tab := NewTable(2, false)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.N() != 2 || back.Active(0, 1) {
		t.Errorf("decoded empty table wrong: n=%d active=%v", back.N(), back.Active(0, 1))
	}
}

func TestTableJSONRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", "{nope"},
		{"negative processors", `{"processors": -1}`},
		{"self pair", `{"processors": 2, "pairs": [{"from":1,"to":1,"count":1,"min":0,"max":0}]}`},
		{"out of range", `{"processors": 2, "pairs": [{"from":0,"to":5,"count":1,"min":0,"max":0}]}`},
		{"zero count", `{"processors": 2, "pairs": [{"from":0,"to":1,"count":0,"min":0,"max":0}]}`},
		{"inverted stats", `{"processors": 2, "pairs": [{"from":0,"to":1,"count":2,"min":3,"max":1}]}`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var back Table
			if err := json.Unmarshal([]byte(tt.data), &back); err == nil {
				t.Error("bad input accepted")
			}
		})
	}
}

func TestTableJSONOmitsRaw(t *testing.T) {
	tab := NewTable(2, true)
	if err := tab.Add(Sample{From: 0, To: 1, SendClock: 0, RecvClock: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "raw") {
		t.Errorf("raw samples leaked into JSON: %s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Raw(0, 1) != nil {
		t.Error("decoded table claims raw retention")
	}
}

func TestMergeStatsValidation(t *testing.T) {
	tab := NewTable(2, false)
	if err := tab.MergeStats(0, 0, DirStats{Count: 1, Min: 1, Max: 1}); err == nil {
		t.Error("self stats accepted")
	}
	if err := tab.MergeStats(0, 5, DirStats{Count: 1, Min: 1, Max: 1}); err == nil {
		t.Error("out-of-range stats accepted")
	}
	if err := tab.MergeStats(0, 1, DirStats{Count: 2, Min: 5, Max: 1}); err == nil {
		t.Error("inverted stats accepted")
	}
	for _, bad := range []DirStats{
		{Count: 1, Min: math.Inf(-1), Max: 1},
		{Count: 1, Min: 1, Max: math.Inf(1)},
		{Count: 3, Min: math.Inf(-1), Max: math.Inf(1)},
		{Count: 1, Min: math.NaN(), Max: 1},
		{Count: -1, Min: 1, Max: 1},
	} {
		err := tab.MergeStats(1, 0, bad)
		if err == nil || !strings.Contains(err.Error(), "p1->p0") {
			t.Errorf("MergeStats(%v) = %v, want an error naming p1->p0", bad, err)
		}
	}
	if tab.Active(0, 1) {
		t.Error("rejected stats opened the pair")
	}
	if err := tab.MergeStats(0, 1, DirStats{Count: 2, Min: 1, Max: 5}); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
	if got := tab.Stats(0, 1); got.Count != 2 || got.Min != 1 || got.Max != 5 {
		t.Errorf("merged stats = %v", got)
	}
	// Merging empty stats is a no-op.
	if err := tab.MergeStats(0, 1, NewDirStats()); err != nil {
		t.Errorf("empty merge rejected: %v", err)
	}
	if got := tab.Stats(0, 1); got.Count != 2 {
		t.Errorf("empty merge changed stats: %v", got)
	}
}
