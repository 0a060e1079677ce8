package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestFlightRecorderRing: the ring keeps the last N rounds oldest-first
// with a monotone Seq across overwrites.
func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(3)
	if fr.Cap() != 3 || fr.Len() != 0 {
		t.Fatalf("fresh recorder: cap %d len %d", fr.Cap(), fr.Len())
	}
	for round := 0; round < 5; round++ {
		rec := RoundRecord{Round: round, Outcome: "ok"}
		rec.AddPhase("probe", float64(round))
		fr.Record(rec)
	}
	if fr.Len() != 3 {
		t.Fatalf("len = %d, want 3", fr.Len())
	}
	snap := fr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d rounds, want 3", len(snap))
	}
	for i, rec := range snap {
		wantRound := i + 2 // rounds 2, 3, 4 survive, oldest first
		if rec.Round != wantRound {
			t.Errorf("snapshot[%d].Round = %d, want %d", i, rec.Round, wantRound)
		}
		if want := uint64(wantRound + 1); rec.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d (monotone across overwrites)", i, rec.Seq, want)
		}
		if len(rec.Phases) != 1 || rec.Phases[0].Seconds != float64(wantRound) {
			t.Errorf("snapshot[%d].Phases = %v", i, rec.Phases)
		}
	}
	// The snapshot is a deep copy: mutating it must not leak into the ring.
	snap[0].Phases[0].Phase = "mutated"
	if fr.Snapshot()[0].Phases[0].Phase == "mutated" {
		t.Error("Snapshot shares phase backing with the ring")
	}
}

// TestFlightRecorderZeroAlloc: the steady-state Record path must not
// allocate — that is the whole point of the preallocated slots.
func TestFlightRecorderZeroAlloc(t *testing.T) {
	fr := NewFlightRecorder(4)
	rec := RoundRecord{Session: "bench", Outcome: "ok", Precision: 0.25}
	rec.AddPhase("probe", 1)
	rec.AddPhase("collect", 2)
	rec.AddPhase("compute", 3)
	// Warm the ring so every Record lands in a reused slot.
	for i := 0; i < 8; i++ {
		fr.Record(rec)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fr.Record(rec)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlightRecorderConcurrent hammers Record and Snapshot from multiple
// goroutines; run under -race this is the recorder's thread-safety test.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := RoundRecord{Session: fmt.Sprintf("g%d", g), Round: i, Outcome: "ok"}
				rec.AddPhase("probe", float64(i))
				fr.Record(rec)
				if i%16 == 0 {
					fr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if fr.Len() != 8 {
		t.Errorf("len = %d, want 8", fr.Len())
	}
	last := fr.Snapshot()[7]
	if last.Seq != 800 {
		t.Errorf("final Seq = %d, want 800", last.Seq)
	}
}

// TestFlightRecorderNil: every method is a no-op on a nil recorder, so
// instrumented code can thread an optional recorder without checks.
func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(RoundRecord{Outcome: "ok"}) // must not panic
	if fr.Cap() != 0 || fr.Len() != 0 || fr.Snapshot() != nil {
		t.Error("nil recorder is not inert")
	}
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var doc struct {
		Capacity int           `json:"capacity"`
		Rounds   []RoundRecord `json:"rounds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil WriteJSON output: %v", err)
	}
	if doc.Capacity != 0 || len(doc.Rounds) != 0 {
		t.Errorf("nil WriteJSON doc = %+v", doc)
	}
}

// TestFlightRecorderWriteJSON round-trips the /debug/rounds document.
func TestFlightRecorderWriteJSON(t *testing.T) {
	fr := NewFlightRecorder(2)
	rec := RoundRecord{Session: "t", Round: 7, Outcome: "degraded", Missing: 2, Precision: 0.5}
	rec.AddPhase("compute", 0.001)
	fr.Record(rec)
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int           `json:"capacity"`
		Rounds   []RoundRecord `json:"rounds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 2 || len(doc.Rounds) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	got := doc.Rounds[0]
	if got.Session != "t" || got.Round != 7 || got.Outcome != "degraded" ||
		got.Missing != 2 || got.Precision != 0.5 || len(got.Phases) != 1 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
}
