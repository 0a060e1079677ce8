package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	workload, metric, unit string
	base, head             [3]float64
	wins, pairs            int
	verdict                string
}

// compareRuns pairs BASE[i] with HEAD[i] and judges every end-to-end
// metric on every workload:
//
//   - better: the head wins at least 9 of 10 pairs and its median beats
//     the base median by more than the base's interquartile range;
//   - unresolved: otherwise, when the base's own spread (IQR over median)
//     is wider than the bound, unless every head run beats every base run
//     (then no regression is possible: unchanged);
//   - worse: the head median is worse than the base median by more than
//     the bound;
//   - unchanged: everything else.
func compareRuns(s *spec, base, head []*runFile) []comparison {
	var rows []comparison
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			bv, hv := values(base, w.Name, m.Name), values(head, w.Name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := comparison{workload: w.Name, metric: m.Name, unit: m.Unit,
				base: quartiles(bv), head: quartiles(hv), pairs: min(len(bv), len(hv))}
			// better(a, b) > 0 when a is better than b.
			better := func(a, b float64) float64 {
				if m.Better == "higher" {
					return a - b
				}
				return b - a
			}
			for i := 0; i < c.pairs; i++ {
				if better(hv[i], bv[i]) > 0 {
					c.wins++
				}
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			gap := better(c.head[1], c.base[1])
			iqr := c.base[2] - c.base[0]
			scale := math.Abs(c.base[1])
			switch {
			case 10*c.wins >= 9*c.pairs && gap > iqr:
				c.verdict = "better"
			case iqr > bound*scale:
				c.verdict = "unresolved"
				if allBetter(hv, bv, better) {
					c.verdict = "unchanged"
				}
			case -gap > bound*scale:
				c.verdict = "worse"
			default:
				c.verdict = "unchanged"
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func allBetter(head, base []float64, better func(a, b float64) float64) bool {
	for _, h := range head {
		for _, b := range base {
			if better(h, b) <= 0 {
				return false
			}
		}
	}
	return true
}

// values collects one metric of one workload across result files, in
// file order.
func values(files []*runFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		if res, ok := f.Workloads[workload]; ok {
			if m, ok := res.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare implements -compare BASE.json... -- HEAD.json...
func runCompare(specPath string, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "clockbench: usage: -compare BASE.json... -- HEAD.json...")
		return 2
	}
	s, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "clockbench: %v\n", err)
		return 1
	}
	load := func(paths []string) ([]*runFile, error) {
		files := make([]*runFile, len(paths))
		for i, p := range paths {
			f, err := loadRunFile(p)
			if err != nil {
				return nil, err
			}
			files[i] = f
		}
		return files, nil
	}
	base, err := load(args[:split])
	if err != nil {
		fmt.Fprintf(stderr, "clockbench: %v\n", err)
		return 1
	}
	head, err := load(args[split+1:])
	if err != nil {
		fmt.Fprintf(stderr, "clockbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-16s %-16s %-6s %36s %36s %6s  %s\n", "workload", "metric", "unit",
		"base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, c := range compareRuns(s, base, head) {
		fmt.Fprintf(stdout, "%-16s %-16s %-6s %36s %36s %6s  %s\n", c.workload, c.metric, c.unit,
			fmtQuartiles(c.base), fmtQuartiles(c.head), fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
	}
	return 0
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}
