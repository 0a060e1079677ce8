package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clocksync/internal/model"
	"clocksync/internal/netsync"
)

func TestDegradedLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  netsync.Outcome
		want string
	}{
		{"clean", netsync.Outcome{Synced: []bool{true, true}}, ""},
		{"split component, nothing missing", netsync.Outcome{Degraded: true, Synced: []bool{true, false}},
			"DEGRADED: the precision covers only the synchronized component [0]"},
		{"missing", netsync.Outcome{Degraded: true, Missing: []model.ProcID{2}, Synced: []bool{true, true, false}},
			"DEGRADED: missing reports from [2]; the precision covers only the synchronized component [0 1]"},
		{"excised", netsync.Outcome{Degraded: true, Excised: []model.ProcID{1}, Synced: []bool{true, false, true}},
			"DEGRADED: reports from [1] excised; the precision covers only the synchronized component [0 2]"},
		{"missing and excised", netsync.Outcome{Degraded: true, Missing: []model.ProcID{3}, Excised: []model.ProcID{1},
			Synced: []bool{true, false, true, false}},
			"DEGRADED: missing reports from [3]; reports from [1] excised; the precision covers only the synchronized component [0 2]"},
	} {
		if got := degradedLine(&tc.out); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("0=127.0.0.1:9000, 2=host:1234")
	if err != nil {
		t.Fatalf("parsePeers: %v", err)
	}
	if len(peers) != 2 || peers[0] != "127.0.0.1:9000" || peers[2] != "host:1234" {
		t.Errorf("peers = %v", peers)
	}
	if got, err := parsePeers(""); err != nil || len(got) != 0 {
		t.Errorf("empty peers = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "=addr", "1=", "a=b=c,", "1=x,1=y", "zz=addr"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestLoadKeyring: loadKeyring rejects what no keyring file may hold;
// a file that leaves an id without a key loads, and Keyring.Validate (run
// by netsync.Start) rejects it.
func TestLoadKeyring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte("# cluster keyring\n0=aabb\n\n1 = ccdd\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(path, 2)
	if err != nil {
		t.Fatalf("loadKeyring: %v", err)
	}
	if len(keys) != 2 || string(keys[0]) != "\xaa\xbb" || string(keys[1]) != "\xcc\xdd" || keys.Validate(2) != nil {
		t.Errorf("keys = %x", keys)
	}
	for name, body := range map[string]string{
		"malformed line": "0aabb\n",
		"bad id":         "x=aabb\n",
		"bad hex":        "0=zz\n",
		"duplicate id":   "0=aa\n0=bb\n",
		"out of range":   "0=aa\n1=bb\n2=cc\n",
		"negative id":    "-1=aa\n0=aa\n1=bb\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadKeyring(path, 2); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
	for name, body := range map[string]string{
		"empty file": "# nothing\n",
		"missing id": "0=aa\n",
		"empty key":  "0=aa\n1=\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		keys, err := loadKeyring(path, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if keys.Validate(2) == nil {
			t.Errorf("%s: keyring %x validates", name, keys)
		}
	}
	if _, err := loadKeyring(filepath.Join(t.TempDir(), "absent"), 2); err == nil {
		t.Error("missing file accepted")
	}
}

func TestClusterLinks(t *testing.T) {
	links, err := clusterLinks(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 6 {
		t.Errorf("links = %d, want 6", len(links))
	}
	nb, err := clusterLinks(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 3 {
		t.Errorf("no-bound links = %d, want 3", len(nb))
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -n accepted")
	}
	if err := run([]string{"-n", "2", "-peers", "garbage"}); err == nil {
		t.Error("bad peers accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	keys := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(keys, []byte("0=aabb\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "2", "-auth-keys", keys}); err == nil || !strings.Contains(err.Error(), "empty key for p1") {
		t.Errorf("keyring without id 1: err = %v", err)
	}
}

// freePorts reserves k distinct loopback ports (small race with other
// processes, fine for tests).
func freePorts(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	listeners := make([]net.Listener, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return addrs
}

// TestRunTwoNodeCluster runs two clocknode mains concurrently against
// reserved loopback ports: a full end-to-end binary test.
func TestRunTwoNodeCluster(t *testing.T) {
	addrs := freePorts(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = run([]string{
			"-id", "0", "-n", "2", "-listen", addrs[0],
			"-maxdelay", "0.5", "-probes", "3", "-timeout", "8s",
		})
	}()
	// Give the coordinator a moment to bind before the peer dials.
	time.Sleep(150 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = run([]string{
			"-id", "1", "-n", "2", "-listen", addrs[1],
			"-peers", "0=" + addrs[0],
			"-coordinator", addrs[0],
			"-offset", "250ms", "-jitter", "2ms",
			"-maxdelay", "0.5", "-probes", "3", "-timeout", "8s",
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
