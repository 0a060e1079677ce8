package clocksync

import (
	"fmt"
	"math"

	"clocksync/internal/core"
	idrift "clocksync/internal/drift"
)

// Session manages periodic resynchronization of a system whose clocks
// drift by at most Rho: each Round inflates the declared assumptions to
// absorb the drift accumulated over the measurement horizon, and the
// session tracks how the guarantee decays afterwards so callers know when
// the next round is due. This operationalizes the paper's footnote 1
// ("the clock synchronization mechanism is invoked periodically").
//
// Clock times passed to Observe must use the same clock the corrections
// will be applied to; the horizon of a round is the largest absolute
// clock value among its observations. Under drift, timestamp each round
// RELATIVE to the node's clock at round start (and apply the corrections
// to those round-relative clocks): the horizon is then the small round
// duration rather than the unbounded clock age, keeping the inflation —
// and hence the achievable precision — constant across the system's
// lifetime. Re-zeroing a clock only renames its unknown start offset, so
// the theory is unaffected.
type Session struct {
	sys *System
	rho float64

	synced        bool
	lastPrecision float64
	lastHorizon   float64
	lastSyncAt    float64
}

// NewSession wraps a configured system with a drift budget rho (0 for
// drift-free clocks).
func NewSession(sys *System, rho float64) (*Session, error) {
	if sys == nil {
		return nil, fmt.Errorf("clocksync: nil system")
	}
	if rho < 0 || rho >= 1 || math.IsNaN(rho) {
		return nil, fmt.Errorf("clocksync: drift bound %v outside [0,1)", rho)
	}
	return &Session{sys: sys, rho: rho}, nil
}

// Round synchronizes from one measurement round's observations. horizon
// is the largest absolute clock value among the round's timestamps; now
// is the current clock time (used as the decay reference for BoundAt and
// Due). The declared assumptions are inflated by 2*rho*horizon before the
// optimal pipeline runs; with rho > 0 the implicit non-negativity
// shortcut is disabled, as soundness requires.
func (s *Session) Round(rec *Recorder, horizon, now float64, opts ...Option) (*Result, error) {
	if rec == nil {
		return nil, fmt.Errorf("clocksync: nil recorder")
	}
	if horizon < 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("clocksync: horizon %v must be finite and non-negative", horizon)
	}
	links := s.sys.Links()
	mopts := core.DefaultMLSOptions()
	if s.rho > 0 {
		for i := range links {
			inflated, err := idrift.Inflate(links[i].A, s.rho, horizon)
			if err != nil {
				return nil, err
			}
			links[i].A = inflated
		}
		mopts = core.MLSOptions{} // drifted estimates may undershoot true delays
	}
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	res, err := core.SynchronizeSystem(s.sys.N(), links, rec.tab, mopts, o)
	if err != nil {
		return nil, err
	}
	s.synced = true
	s.lastPrecision = res.Precision
	s.lastHorizon = horizon
	s.lastSyncAt = now
	return res, nil
}

// BoundAt returns the guaranteed corrected-clock discrepancy at clock
// time t, accounting for drift accumulated since the last round. Before
// any round it returns +Inf.
func (s *Session) BoundAt(t float64) float64 {
	if !s.synced {
		return math.Inf(1)
	}
	dt := t - s.lastSyncAt
	if dt < 0 {
		dt = 0
	}
	return idrift.Bound(s.lastPrecision, s.rho, s.lastHorizon, dt)
}

// Due returns how much clock time remains (from time t) before the
// guarantee exceeds target; 0 means a round is overdue, +Inf means the
// target holds indefinitely (drift-free and within target).
func (s *Session) Due(target, t float64) float64 {
	if !s.synced {
		return 0
	}
	return idrift.ResyncPeriod(target, s.BoundAt(t), s.rho)
}
