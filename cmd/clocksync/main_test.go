package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync"
	"clocksync/internal/obs"
)

func writeScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	cfg := `{
		"processors": 4,
		"seed": 11,
		"startSpread": 2,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
		},
		"protocol": {"kind": "burst", "k": 3, "spacing": 0.01, "warmup": -1}
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScenarioFile(t *testing.T) {
	path := writeScenario(t)
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithVerifyAndOptions(t *testing.T) {
	path := writeScenario(t)
	if err := run([]string{"-scenario", path, "-verify", "-centered", "-root", "2", "-trials", "50"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunInit(t *testing.T) {
	if err := run([]string{"-init"}); err != nil {
		t.Fatalf("run -init: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -scenario accepted")
	}
	if err := run([]string{"-scenario", "/does/not/exist.json"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", bad}); err == nil {
		t.Error("invalid scenario accepted")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunDisconnectedScenarioPrintsComponents(t *testing.T) {
	// Custom topology with two islands: precision is unbounded, command
	// must still succeed and report components.
	path := filepath.Join(t.TempDir(), "islands.json")
	cfg := `{
		"processors": 4,
		"seed": 3,
		"startSpread": 1,
		"topology": {"kind": "custom", "pairs": [[0,1],[2,3]]},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.05, "ub": 0.2},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.05, "hi": 0.2}}
		},
		"protocol": {"kind": "burst", "k": 2, "spacing": 0.01, "warmup": -1}
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunDistributedModes(t *testing.T) {
	path := writeScenario(t)
	if err := run([]string{"-scenario", path, "-dist", "leader"}); err != nil {
		t.Fatalf("leader mode: %v", err)
	}
	if err := run([]string{"-scenario", path, "-dist", "gossip", "-centered"}); err != nil {
		t.Fatalf("gossip mode: %v", err)
	}
	if err := run([]string{"-scenario", path, "-dist", "quantum"}); err == nil {
		t.Error("unknown dist mode accepted")
	}
}

func TestRunPairsFlag(t *testing.T) {
	path := writeScenario(t)
	if err := run([]string{"-scenario", path, "-pairs", "-centered"}); err != nil {
		t.Fatalf("run -pairs: %v", err)
	}
}

// writeFaultyScenario crashes p3 mid-measurement so the leader computes
// degraded.
func writeFaultyScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faulty.json")
	cfg := `{
		"processors": 4,
		"seed": 7,
		"startSpread": 1,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.03, "ub": 0.09},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.03, "hi": 0.09}}
		},
		"protocol": {"kind": "burst", "k": 1, "warmup": -1},
		"faults": {"crashes": [{"proc": 3, "at": 2.0}]}
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDistributedDegradedExit: a degraded run returns errDegraded (so
// main exits 2) and publishes a degraded /healthz payload.
func TestRunDistributedDegradedExit(t *testing.T) {
	path := writeFaultyScenario(t)
	err := run([]string{"-scenario", path, "-dist", "leader", "-report-grace", "1"})
	if !errors.Is(err, errDegraded) {
		t.Fatalf("degraded run returned %v, want errDegraded", err)
	}
	h := obs.CurrentHealth()
	if !h.Degraded || h.Status != "degraded" {
		t.Errorf("health = %+v, want degraded", h)
	}
	if h.Missing == 0 {
		t.Errorf("health reports no missing processors: %+v", h)
	}
}

// TestRunDistributedTrace: -trace writes span JSON with non-zero phase
// timings for the probe window and every compute sub-phase.
func TestRunDistributedTrace(t *testing.T) {
	scen := writeScenario(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-scenario", scen, "-dist", "leader", "-trace", tracePath}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name  string     `json:"name"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]float64{}
	for _, sp := range doc.Spans {
		seen[sp.Phase] += sp.Seconds
	}
	for _, phase := range []string{"probe", "collect", "compute", "estimate", "karp_amax", "corrections"} {
		if seen[phase] <= 0 {
			t.Errorf("phase %q total duration %v, want > 0 (spans: %v)", phase, seen[phase], seen)
		}
	}
}

// TestRunMetricsServer: -metrics-addr serves Prometheus text by default,
// a JSON metrics snapshot on request, and a /healthz that reflects the
// finished run.
func TestRunMetricsServer(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := writeScenario(t)
	if err := run([]string{"-scenario", path, "-dist", "gossip"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["dist.probes.sent"] == 0 {
		t.Errorf("dist.probes.sent = 0 after a gossip run; counters: %v", snap.Counters)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(prom), "clocksync_dist_probes_sent_total") {
		t.Errorf("default /metrics missing clocksync_dist_probes_sent_total:\n%.400s", prom)
	}
	if err := obs.CheckExposition(prom); err != nil {
		t.Errorf("default /metrics failed exposition check: %v", err)
	}
}

// TestPrintReportLabels: an exact result prints its precision as the
// optimum A_max; a component whose certified lower bound λ_B lies below
// its precision (the hierarchical solver answered) prints the precision
// as the bound λ̂, and λ_B beside it, never as A_max.
func TestPrintReportLabels(t *testing.T) {
	tests := []struct {
		name      string
		res       clocksync.Result
		want, not []string
	}{
		{
			name: "exact",
			res: clocksync.Result{Precision: 2, ComponentPrecision: []float64{2}, ComponentLowerBound: []float64{2},
				Components: [][]int{{0, 1}}, Corrections: []float64{0, 1}, CriticalCycle: []int{0, 1}},
			want: []string{"optimal precision (A_max): 2\n", "critical cycle: [0 1]\n"},
			not:  []string{"λ̂", "λ_B"},
		},
		{
			name: "hierarchical",
			res: clocksync.Result{Precision: 3.8, ComponentPrecision: []float64{3.8}, ComponentLowerBound: []float64{2},
				Components: [][]int{{0, 1}}, Corrections: []float64{0, 1}},
			want: []string{"precision bound (λ̂): 3.8\n", "certified lower bound (λ_B): 2\n"},
			not:  []string{"A_max", "optimal"},
		},
		{
			name: "components",
			res: clocksync.Result{Precision: math.Inf(1), ComponentPrecision: []float64{3.8, 1}, ComponentLowerBound: []float64{2, 1},
				Components: [][]int{{0, 1}, {2, 3}}, Corrections: []float64{0, 1, 0, 0}},
			want: []string{
				"component 0: processors [0 1], precision bound (λ̂) 3.8, certified lower bound (λ_B) 2\n",
				"component 1: processors [2 3], precision 1\n",
			},
			not: []string{"A_max"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			printReport(&b, &clocksync.Report{Result: &tt.res, Messages: 4})
			out := b.String()
			for _, w := range tt.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			for _, w := range tt.not {
				if strings.Contains(out, w) {
					t.Errorf("output has %q:\n%s", w, out)
				}
			}
		})
	}
}
