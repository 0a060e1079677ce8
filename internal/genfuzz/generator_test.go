package genfuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestGenerateDeterministic: Generate is a pure function of (seed, cfg) —
// the whole point of a seed-stream corpus is that CI and a laptop see the
// same instance for the same seed.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		a := Generate(seed, cfg)
		b := Generate(seed, cfg)
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Errorf("seed %d: two generations differ:\n%s\n%s", seed, ja, jb)
		}
	}
}

// TestGenerateStable pins the seed stream: a SHA-256 over the built start
// times and link pairs and the link specs of seeds 1-300. A change to any
// family, draw order or spec moves it, and a change that means to must
// say which seeds it moves.
func TestGenerateStable(t *testing.T) {
	const want = "e8cee7ee453f57f3ce4943325808bfeb785e470c861627c9af88d7cc09d36fbb"
	cfg := DefaultConfig()
	h := sha256.New()
	for seed := int64(1); seed <= 300; seed++ {
		sc := Generate(seed, cfg).Scenario
		built, err := sc.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var b [8]byte
		for _, x := range built.Starts {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for _, l := range built.Links {
			fmt.Fprintf(h, "%d-%d,", l.P, l.Q)
		}
		specs, err := json.Marshal([]any{sc.DefaultLink, sc.Links})
		if err != nil {
			t.Fatal(err)
		}
		h.Write(specs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestGeneratedScenariosBuild: every generated scenario must pass its own
// validation — the generator and the scenario schema must not drift apart.
func TestGeneratedScenariosBuild(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 150; seed++ {
		inst := Generate(seed, cfg)
		if _, err := inst.Scenario.Build(); err != nil {
			t.Errorf("seed %d: generated scenario does not build: %v", seed, err)
		}
	}
}

// TestGeneratorCoversShapes: over a modest seed block the generator must
// exercise each of its ten topology families (the chord ring is the
// "custom" kind) and both sound and unsound instances —
// a silent collapse to one shape would gut the fuzzer's coverage.
func TestGeneratorCoversShapes(t *testing.T) {
	cfg := DefaultConfig()
	kinds := map[string]bool{}
	sound, unsound, faulted := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		inst := Generate(seed, cfg)
		kinds[inst.Scenario.Topology.Kind] = true
		if inst.Sound {
			sound++
		} else {
			unsound++
		}
		if inst.Scenario.Faults != nil {
			faulted++
		}
	}
	for _, k := range []string{"line", "ring", "star", "complete", "tree", "grid", "ringOfCliques", "custom", "barbell", "twoRings"} {
		if !kinds[k] {
			t.Errorf("topology family %q missing from 300 seeds: %v", k, kinds)
		}
	}
	if sound == 0 || unsound == 0 {
		t.Errorf("sound/unsound split %d/%d — both must occur", sound, unsound)
	}
	if faulted == 0 {
		t.Error("no instance had a fault schedule")
	}
}

// TestOracleCleanOnSeedBlock is the in-tree version of the CI smoke run:
// the first seeds of the stream must produce zero findings on a healthy
// tree.
func TestOracleCleanOnSeedBlock(t *testing.T) {
	cfg := DefaultConfig()
	o := &Oracle{}
	for seed := int64(1); seed <= 60; seed++ {
		inst := Generate(seed, cfg)
		if fs := o.Check(inst); len(fs) > 0 {
			for _, f := range fs {
				t.Logf("seed %d: %s", seed, f)
			}
			t.Fatalf("seed %d: %d finding(s) on a healthy tree", seed, len(fs))
		}
	}
}
