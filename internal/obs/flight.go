package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// PhaseTiming is one named phase duration inside a RoundRecord.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// RoundRecord is the flight-recorder entry for one synchronization round:
// everything needed to diagnose it after the fact without debug logging —
// outcome, phase timings, dirty-edge stats, defense actions, and the
// quality figures of merit.
type RoundRecord struct {
	// Seq is a monotone sequence number assigned by the recorder.
	Seq uint64 `json:"seq"`
	// Session labels the run/session the round belongs to ("" for
	// single-run processes).
	Session string `json:"session,omitempty"`
	// Round is the round counter within the session.
	Round int `json:"round"`
	// Outcome is "ok", "degraded" or "failed".
	Outcome string `json:"outcome"`
	// Err carries the terminal error of a failed round.
	Err string `json:"err,omitempty"`
	// Synced / Missing count processors in and out of the synchronized
	// component; Excised counts reporters removed by outlier excision and
	// AuthFailures MAC-rejected frames observed during the round.
	Synced       int `json:"synced"`
	Missing      int `json:"missing,omitempty"`
	Excised      int `json:"excised,omitempty"`
	AuthFailures int `json:"authFailures,omitempty"`
	// Precision is the guaranteed worst-pair precision of the round's
	// result (-1 when unbounded or unknown).
	Precision float64 `json:"precision"`
	// Achieved / Optimal / Ratio mirror the quality.precision.* gauges
	// (core.QualityReport). On a round that carries the m~s matrix they
	// are the realized worst-pair bound, the A_max optimum (Thm 4.6) and
	// their ratio, 1 ± ε when healthy. Without m~s they are the certified
	// bracket λ̂, λ_B ≤ A_max and its width: Optimal is then a lower bound,
	// and Ratio reads about 2 on a healthy hierarchical round. Zero when
	// quality telemetry was off for the round.
	Achieved float64 `json:"achieved,omitempty"`
	Optimal  float64 `json:"optimal,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	// DirtyEdges carries the streaming engine's dirty-edge count when the
	// round came from a Stream solve.
	DirtyEdges int `json:"dirtyEdges,omitempty"`
	// Phases holds the round's phase timings in completion order.
	Phases []PhaseTiming `json:"phases,omitempty"`
	// WallSeconds is the round's total wall-clock duration when known.
	WallSeconds float64 `json:"wallSeconds,omitempty"`
}

// AddPhase appends one phase timing (reusing the record's backing array,
// so steady-state recording does not allocate).
func (r *RoundRecord) AddPhase(phase string, seconds float64) {
	r.Phases = append(r.Phases, PhaseTiming{Phase: phase, Seconds: seconds})
}

// Reset clears the record for reuse, keeping the Phases backing array.
func (r *RoundRecord) Reset() {
	phases := r.Phases[:0]
	*r = RoundRecord{}
	r.Phases = phases
}

// FlightRecorder is a bounded ring buffer of the last N RoundRecords.
// Record copies the caller's record into a preallocated slot, reusing
// each slot's phase array, so the steady-state hot path performs zero
// allocations. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops), so instrumented code can thread an optional
// recorder without nil checks.
type FlightRecorder struct {
	mu    sync.Mutex
	seq   uint64
	slots []RoundRecord
	next  int // next slot to overwrite
	size  int // slots filled so far (≤ len(slots))
}

// DefaultRounds is the capacity of the package-level Rounds recorder.
const DefaultRounds = 64

// Rounds is the process-wide flight recorder served at /debug/rounds.
var Rounds = NewFlightRecorder(DefaultRounds)

// NewFlightRecorder returns a recorder keeping the last n rounds (n < 1
// is coerced to 1). Phase arrays are preallocated so typical rounds
// (≤ 8 phases) record without allocating.
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	fr := &FlightRecorder{slots: make([]RoundRecord, n)}
	for i := range fr.slots {
		fr.slots[i].Phases = make([]PhaseTiming, 0, 8)
	}
	return fr
}

// Cap returns the recorder capacity (0 on nil).
func (fr *FlightRecorder) Cap() int {
	if fr == nil {
		return 0
	}
	return len(fr.slots)
}

// Len returns the number of rounds currently held (0 on nil).
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.size
}

// Record stores one round, overwriting the oldest entry when full. The
// record's Seq is assigned by the recorder; the caller's Phases slice is
// copied into the slot's reused backing array. No-op on nil.
func (fr *FlightRecorder) Record(r RoundRecord) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	slot := &fr.slots[fr.next]
	phases := append(slot.Phases[:0], r.Phases...)
	*slot = r
	slot.Phases = phases
	fr.seq++
	slot.Seq = fr.seq
	fr.next = (fr.next + 1) % len(fr.slots)
	if fr.size < len(fr.slots) {
		fr.size++
	}
	fr.mu.Unlock()
}

// Snapshot returns the held rounds oldest-first. This is the cold path:
// it allocates a fresh copy (including phase slices) so the caller can
// hold it while recording continues. Nil on a nil or empty recorder.
func (fr *FlightRecorder) Snapshot() []RoundRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.size == 0 {
		return nil
	}
	out := make([]RoundRecord, 0, fr.size)
	start := fr.next - fr.size
	if start < 0 {
		start += len(fr.slots)
	}
	for i := 0; i < fr.size; i++ {
		slot := fr.slots[(start+i)%len(fr.slots)]
		slot.Phases = append([]PhaseTiming(nil), slot.Phases...)
		out = append(out, slot)
	}
	return out
}

// roundsJSON is the /debug/rounds envelope.
type roundsJSON struct {
	Capacity int           `json:"capacity"`
	Rounds   []RoundRecord `json:"rounds"`
}

// WriteJSON writes the recorder contents (oldest first) as an indented
// JSON document. Safe on nil (writes an empty document).
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	doc := roundsJSON{Capacity: fr.Cap(), Rounds: fr.Snapshot()}
	if doc.Rounds == nil {
		doc.Rounds = []RoundRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
