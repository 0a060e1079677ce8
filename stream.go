package clocksync

import (
	"clocksync/internal/core"
)

// StreamStats counts how a Stream resolved its Corrections calls: served
// unchanged from the certified cache, or by a full batch re-solve.
// Repaired is always zero.
type StreamStats = core.StreamStats

// Stream is the incremental interface to the synchronization pipeline for
// long-running deployments: observations are folded in one at a time into
// the same statistics table a Recorder keeps, each refreshing its pair's
// local-shift estimates (which, under the built-in delay models, a new
// message can only tighten), and Corrections reuses the previous solve
// wherever the tightened links provably cannot change it — falling back
// to a full batch solve of the table when they can. Results are always identical to what Synchronize would return for
// the same observations, bit-for-bit.
//
// Reuse contract: the Result returned by Corrections (including every
// slice it references) is owned by the Stream and remains valid only
// until the next Corrections call; use Result.Clone to retain it — the
// same escape hatch as the batch pipeline's arena-backed results. A
// Stream must not be used from multiple goroutines concurrently.
type Stream struct {
	s *core.Stream
}

// NewStream creates a streaming synchronizer over the system's links. The
// options are the same as Synchronize's; the system's links are captured
// at creation (later AddLink calls do not affect an existing Stream).
func (s *System) NewStream(opts ...Option) (*Stream, error) {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	cs, err := core.NewStream(s.n, s.links, core.DefaultMLSOptions(), o)
	if err != nil {
		return nil, err
	}
	return &Stream{s: cs}, nil
}

// Observe folds one delivered message into the stream: the sender's clock
// at transmission and the receiver's clock at receipt, exactly like
// Recorder.Observe, with the same validation and errors. The steady-state
// cost is one table update and one shift update per link on the pair,
// with zero allocations.
func (st *Stream) Observe(from, to ProcID, sendClock, recvClock float64) error {
	return st.s.Observe(from, to, sendClock, recvClock)
}

// Corrections returns instance-optimal corrections for everything
// observed so far — the streaming equivalent of System.Synchronize. See
// the Stream type documentation for the Result reuse contract.
func (st *Stream) Corrections() (*Result, error) {
	return st.s.Corrections()
}

// Stats returns cumulative solve-path counters for this Stream.
func (st *Stream) Stats() StreamStats { return st.s.Stats() }

// Close releases the worker pools owned by the stream. The Stream stays
// usable; a later call recreates them.
func (st *Stream) Close() { st.s.Close() }
