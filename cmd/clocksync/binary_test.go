package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinaryExitCodes builds the clocksync binary and runs it as a user
// would, so main's mapping of outcomes to exit codes is covered: 0 on a
// verified run, 1 on an error, 2 on a degraded distributed run.
func TestBinaryExitCodes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "clocksync")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// exitOf runs the binary and returns its exit code and combined output.
	exitOf := func(args ...string) (int, string) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, string(out)
		case errors.As(err, &exit):
			return exit.ExitCode(), string(out)
		}
		t.Fatalf("clocksync %v: %v", args, err)
		return 0, ""
	}

	starter, err := exec.Command(bin, "-init").Output()
	if err != nil {
		t.Fatalf("clocksync -init: %v", err)
	}
	path := filepath.Join(dir, "starter.json")
	if err := os.WriteFile(path, starter, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitOf("-scenario", path, "-verify"); code != 0 || !strings.Contains(out, "optimality: verified") {
		t.Errorf("-init output with -verify: exit %d, want 0 and \"optimality: verified\"\n%s", code, out)
	}
	if code, out := exitOf("-scenario", filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("missing scenario file: exit %d, want 1\n%s", code, out)
	}
	if code, out := exitOf("-scenario", writeFaultyScenario(t), "-dist", "leader"); code != 2 || !strings.Contains(out, "DEGRADED") {
		t.Errorf("crash scenario with -dist leader: exit %d, want 2 and \"DEGRADED\"\n%s", code, out)
	}
}
