package trace

import (
	"cmp"
	"fmt"
	"slices"

	"clocksync/internal/model"
)

// LinkKey identifies an unordered link in canonical orientation P < Q.
type LinkKey struct {
	P, Q model.ProcID
}

// Canon returns the canonical key for an unordered pair.
func Canon(p, q model.ProcID) LinkKey {
	if p > q {
		p, q = q, p
	}
	return LinkKey{P: p, Q: q}
}

// EstPair is one matched request/response exchange: the estimated delay
// of the i-th P->Q message and of the i-th Q->P message, in send-clock
// order. (The canonical orientation's P side is the "request" direction.)
type EstPair struct {
	PQ, QP float64
}

// CollectPairs matches the messages of each link by rank in send-clock
// order: the i-th P->Q message pairs with the i-th Q->P message. For
// exchange protocols that alternate request/response per link (ping-pong,
// symmetric bursts) this recovers exactly the same-time pairs the
// paired-bias model constrains. Unmatched trailing messages are dropped.
func CollectPairs(e *model.Execution) (map[LinkKey][]EstPair, error) {
	return collectPairs(e, model.Message.EstimatedDelay)
}

// CollectActualPairs is CollectPairs with actual (real-time) delays; for
// the verifier only.
func CollectActualPairs(e *model.Execution) (map[LinkKey][]EstPair, error) {
	return collectPairs(e, func(m model.Message) float64 { return m.Delay(e) })
}

// collectPairs groups one walk of the correspondence by link and
// direction, ranks each direction by the total order (SendClock, ID), and
// pairs delay(m) of equal ranks.
func collectPairs(e *model.Execution, delay func(model.Message) float64) (map[LinkKey][]EstPair, error) {
	type dirMsgs struct {
		pq, qp []model.Message
	}
	byLink := make(map[LinkKey]*dirMsgs)
	if err := e.EachMessage(func(m model.Message) error {
		key := Canon(m.From, m.To)
		dm := byLink[key]
		if dm == nil {
			dm = &dirMsgs{}
			byLink[key] = dm
		}
		if m.From == key.P {
			dm.pq = append(dm.pq, m)
		} else {
			dm.qp = append(dm.qp, m)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("trace: resolve messages: %w", err)
	}
	bySend := func(a, b model.Message) int {
		if c := cmp.Compare(a.SendClock, b.SendClock); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	out := make(map[LinkKey][]EstPair, len(byLink))
	for key, dm := range byLink {
		slices.SortFunc(dm.pq, bySend)
		slices.SortFunc(dm.qp, bySend)
		pairs := make([]EstPair, min(len(dm.pq), len(dm.qp)))
		for i := range pairs {
			pairs[i] = EstPair{PQ: delay(dm.pq[i]), QP: delay(dm.qp[i])}
		}
		out[key] = pairs
	}
	return out, nil
}
