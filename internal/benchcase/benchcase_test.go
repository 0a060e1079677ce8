package benchcase

import (
	"strings"
	"testing"

	"clocksync/internal/experiments"
)

// TestCases runs every case's setup and op once, at full size: an op
// that fails here fails BenchmarkCore and benchjson too.
func TestCases(t *testing.T) {
	for _, c := range All() {
		t.Run(c.Name, func(t *testing.T) {
			op, release, err := c.Setup()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer release()
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamSteadyStateAllocs asserts the streaming acceptance criterion
// directly: the StreamUpdate/n=128 op (one genuinely tightening
// observation, then Corrections served from the certified cache)
// performs zero heap allocations. The op itself fails if a solve leaves
// the cached path.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	op, release, err := stream(128, false).Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	allocs := testing.AllocsPerRun(100, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Observe+Corrections allocates %v objects per op, want 0", allocs)
	}
}

// TestVerdicts: an experiment op fails on any FAIL cell and names the
// row.
func TestVerdicts(t *testing.T) {
	tab := &experiments.Table{
		ID:      "Z1",
		Columns: []string{"case", "bound", "match"},
		Rows: [][]string{
			{"ring", "0.1", "ok"},
			{"line", "0.2", "FAIL"},
		},
	}
	err := verdicts(tab)
	if err == nil || !strings.Contains(err.Error(), "Z1") || !strings.Contains(err.Error(), "line") {
		t.Errorf("verdicts = %v, want a Z1 failure naming the line row", err)
	}
	tab.Rows = tab.Rows[:1]
	if err := verdicts(tab); err != nil {
		t.Errorf("all-ok table: verdicts = %v, want nil", err)
	}
}
