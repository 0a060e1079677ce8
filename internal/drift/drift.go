// Package drift extends the framework to clocks with bounded drift. The
// paper assumes drift-free clocks and argues (footnote 1, after
// Kopetz-Ochsenreiter) that periodic resynchronization makes this
// reasonable; this package supplies the machinery that argument needs:
//
//   - CollectDrifted converts a simulated execution into the trace a
//     system with drifting hardware clocks would actually record
//     (clock_p(t) = rate_p * (t - S_p), rate_p in [1-rho, 1+rho]);
//   - Inflate soundly widens any delay assumption to absorb the timestamp
//     error drift introduces within a measurement horizon, so the
//     drift-free optimal algorithm applies unchanged;
//   - Discrepancy and ResyncPeriod quantify how the corrected clocks
//     diverge after synchronization and how often to resynchronize for a
//     target precision.
//
// With horizon H (the largest clock value appearing in any timestamp) and
// drift bound rho, every estimated delay carries at most 2*rho*H of
// timestamp error, so bounds widen by that amount per side and bias
// bounds by twice it. The resulting guarantee degrades gracefully: at
// real time dt after the measurement, corrected clocks agree to within
// precision + 2*rho*(H + dt).
package drift

import (
	"fmt"
	"math"

	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// Rates is the per-processor clock rate vector; entry p multiplies real
// time elapsed since p's start.
type Rates []float64

// Validate checks the rates against a drift bound rho.
func (r Rates) Validate(n int, rho float64) error {
	if len(r) != n {
		return fmt.Errorf("drift: %d rates for %d processors", len(r), n)
	}
	if rho < 0 || rho >= 1 {
		return fmt.Errorf("drift: rho = %v, want [0,1)", rho)
	}
	for p, v := range r {
		if math.IsNaN(v) || v < 1-rho || v > 1+rho {
			return fmt.Errorf("drift: rate[%d] = %v outside [%v,%v]", p, v, 1-rho, 1+rho)
		}
	}
	return nil
}

// CollectDrifted reduces an execution to the estimated-delay statistics a
// system with the given clock rates would record: every timestamp is
// re-expressed through the drifted clock before the Lemma 6.1 reduction.
func CollectDrifted(e *model.Execution, rates Rates) (*trace.Table, error) {
	if len(rates) != e.N() {
		return nil, fmt.Errorf("drift: %d rates for %d processors", len(rates), e.N())
	}
	tab := trace.NewTable(e.N(), false)
	var bad error
	if err := e.EachMessage(func(m model.Message) error {
		// The ideal clock value IS t - S, so the drifted reading is just
		// the rate times the ideal reading.
		send := rates[m.From] * m.SendClock
		recv := rates[m.To] * m.RecvClock
		bad = tab.Add(trace.Sample{From: m.From, To: m.To, SendClock: send, RecvClock: recv})
		return bad
	}); err != nil {
		if bad != nil {
			return nil, bad
		}
		return nil, fmt.Errorf("drift: %w", err)
	}
	return tab, nil
}

// MaxClock returns the largest absolute ideal clock value appearing in
// any message timestamp of the execution: the measurement horizon H used
// by Inflate.
func MaxClock(e *model.Execution) (float64, error) {
	h := 0.0
	if err := e.EachMessage(func(m model.Message) error {
		h = math.Max(h, math.Abs(m.SendClock))
		h = math.Max(h, math.Abs(m.RecvClock))
		return nil
	}); err != nil {
		return 0, fmt.Errorf("drift: %w", err)
	}
	return h, nil
}

// Inflate widens a delay assumption so it remains sound for timestamps
// carrying up to rho*horizon of drift error each: estimated delays move
// by at most slack = 2*rho*horizon, so bounds relax by slack per side and
// bias bounds by 2*slack.
//
// Under drift, synchronize with MLSOptions.AssumeNonnegative disabled:
// the implicit "delays >= 0" constraint is about true delays, but drifted
// estimates can sit up to slack below them, so applying it to drifted
// data would overstate the guarantee. Inflate cannot fix this for you —
// lower bounds clamp at zero by physics — hence the option must be off.
func Inflate(a delay.Assumption, rho, horizon float64) (delay.Assumption, error) {
	if rho < 0 || rho >= 1 {
		return nil, fmt.Errorf("drift: rho = %v, want [0,1)", rho)
	}
	if horizon < 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("drift: horizon = %v, want finite >= 0", horizon)
	}
	slack := 2 * rho * horizon
	return inflate(a, slack)
}

func inflate(a delay.Assumption, slack float64) (delay.Assumption, error) {
	switch v := a.(type) {
	case delay.Bounds:
		return delay.NewBounds(widen(v.PQ, slack), widen(v.QP, slack))
	case delay.RTTBias:
		return delay.NewRTTBias(v.B + 2*slack)
	case delay.Intersect:
		parts := make([]delay.Assumption, 0, len(v.Parts))
		for _, p := range v.Parts {
			ip, err := inflate(p, slack)
			if err != nil {
				return nil, err
			}
			parts = append(parts, ip)
		}
		return delay.NewIntersect(parts...)
	default:
		return nil, fmt.Errorf("drift: cannot inflate assumption %v (unknown type %T)", a, a)
	}
}

func widen(r delay.Range, slack float64) delay.Range {
	lb := r.LB - slack
	if lb < 0 {
		lb = 0
	}
	ub := r.UB
	if !math.IsInf(ub, 1) {
		ub += slack
	}
	return delay.Range{LB: lb, UB: ub}
}

// Discrepancy evaluates the realized corrected-clock disagreement of a
// drifted system at real time t:
//
//	max over pairs | rate_p*(t-S_p) + x_p - rate_q*(t-S_q) - x_q |.
func Discrepancy(starts []float64, rates Rates, corrections []float64, t float64) (float64, error) {
	n := len(starts)
	if len(rates) != n || len(corrections) != n {
		return 0, fmt.Errorf("drift: dimension mismatch (%d starts, %d rates, %d corrections)", n, len(rates), len(corrections))
	}
	worst := 0.0
	for p := 0; p < n; p++ {
		cp := rates[p]*(t-starts[p]) + corrections[p]
		for q := p + 1; q < n; q++ {
			cq := rates[q]*(t-starts[q]) + corrections[q]
			if d := math.Abs(cp - cq); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// Bound returns the sound discrepancy bound at dt real seconds after the
// measurement horizon: the inflated-assumption precision plus the
// timestamp slack at the horizon plus the post-sync divergence.
func Bound(precision, rho, horizon, dt float64) float64 {
	return precision + 2*rho*horizon + 2*rho*dt
}

// ResyncPeriod returns the longest interval between synchronizations that
// keeps the corrected clocks within target, given the achieved precision
// at sync time and the drift bound. It returns 0 when even immediate
// resynchronization cannot meet the target.
func ResyncPeriod(target, precisionAtSync, rho float64) float64 {
	if rho <= 0 {
		if precisionAtSync <= target {
			return math.Inf(1)
		}
		return 0
	}
	headroom := target - precisionAtSync
	if headroom <= 0 {
		return 0
	}
	return headroom / (2 * rho)
}
