// Command clockbench is the repository's end-to-end benchmark. It runs
// five workloads from inputs generated from -seed, each as a closed loop
// with one caller goroutine, checks every output against an independent
// reference outside the timed interval, and prints every metric by name
// and unit. BENCHMARK.json at the repository root lists the workloads and
// the metrics with their directions and regression bounds; README.md in
// this directory explains them.
//
// Usage, from the module root:
//
//	go run ./cmd/clockbench -seed 1 -json out.json        # every workload, each in a child process
//	go run ./cmd/clockbench -workload dense-batch -seed 1 # one workload, in this process
//	go run ./cmd/clockbench -seed 1 -trace DIR            # per-layer metrics, Perfetto traces, layer tables
//	go run ./cmd/clockbench -compare a1.json a2.json -- b1.json b2.json
//
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics. The last line of standard output is one JSON object:
// for one workload {"correct", "attempted", "failed", "metrics"}, for
// several {"seed", "workloads": {name: that object}}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// defaultSeconds is the measured time per workload; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runFile is what -json writes and -compare reads.
type runFile struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clockbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured wall time per workload; at least one input cycle always runs")
	traceDir := fs.String("trace", "", "traced run: report per-layer metrics and write Perfetto traces and layer tables into `DIR`")
	jsonOut := fs.String("json", "", "also write the results to `FILE`")
	quick := fs.Bool("quick", false, "tiny inputs, for smoke tests")
	compare := fs.Bool("compare", false, "compare result files: -compare BASE.json... -- HEAD.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "clockbench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	file := &runFile{Seed: *seed, Workloads: map[string]*result{}}
	if *name != "" {
		res, err := runWorkload(config{workload: *name, seed: *seed, seconds: *seconds, quick: *quick, traceDir: *traceDir})
		if err != nil {
			fmt.Fprintf(stderr, "clockbench: %v\n", err)
			return 1
		}
		file.Workloads[*name] = res
		printTable(stdout, file)
		if res.layers != nil {
			stdout.Write(res.layers.table())
		}
		if err := emit(stdout, res, file, *jsonOut); err != nil {
			fmt.Fprintf(stderr, "clockbench: %v\n", err)
			return 1
		}
		return exitFor(res.Correct)
	}

	// Every workload in a child process of its own, so each peak_rss_mb
	// is that workload's alone.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "clockbench: %v\n", err)
		return 1
	}
	correct := true
	for _, w := range workloads {
		childArgs := []string{"-workload", w.name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
		if *quick {
			childArgs = append(childArgs, "-quick")
		}
		if *traceDir != "" {
			childArgs = append(childArgs, "-trace", *traceDir)
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil && !isCheckFailure(err) {
			fmt.Fprintf(stderr, "clockbench: %s: %v\n", w.name, err)
			return 1
		}
		res, perr := lastLine(out)
		if perr != nil {
			fmt.Fprintf(stderr, "clockbench: %s: %v\n", w.name, perr)
			return 1
		}
		file.Workloads[w.name] = res
		correct = correct && res.Correct
	}
	printTable(stdout, file)
	if err := emit(stdout, file, file, *jsonOut); err != nil {
		fmt.Fprintf(stderr, "clockbench: %v\n", err)
		return 1
	}
	return exitFor(correct)
}

// exitFor maps a run's correctness to the exit code: a failed check is an
// error after the results are printed.
func exitFor(correct bool) int {
	if correct {
		return 0
	}
	return 1
}

// isCheckFailure reports a child that printed its results but exited 1
// because a check failed.
func isCheckFailure(err error) bool {
	var ee *exec.ExitError
	return errors.As(err, &ee) && ee.ExitCode() == 1
}

// lastLine parses a child's result line.
func lastLine(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// emit prints line as the last line of standard output and writes file
// to path when one is given.
func emit(stdout io.Writer, line any, file *runFile, path string) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", data); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	data, err = json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric of every workload by name and unit.
func printTable(w io.Writer, f *runFile) {
	fmt.Fprintf(w, "clockbench seed %d, GOMAXPROCS %d\n", f.Seed, runtime.GOMAXPROCS(0))
	for _, wl := range workloads {
		res, ok := f.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", wl.name, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Fprintf(w, "  %-26s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
}
