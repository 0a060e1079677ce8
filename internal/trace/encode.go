package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"clocksync/internal/model"
)

// tableJSON is the wire form of a Table: only non-empty directed pairs are
// serialized, as statistics (raw samples are not persisted).
type tableJSON struct {
	Processors int         `json:"processors"`
	Pairs      []pairStats `json:"pairs"`
}

type pairStats struct {
	From  model.ProcID `json:"from"`
	To    model.ProcID `json:"to"`
	Count int          `json:"count"`
	Min   float64      `json:"min"`
	Max   float64      `json:"max"`
}

// MarshalJSON encodes the table's statistics, one entry per observed
// directed pair sorted by (from, to). Raw samples (if retained) are not
// included; a decoded table always has raw retention off.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Processors: t.n}
	t.Pairs(func(p, q model.ProcID, pq, _ DirStats) {
		if !pq.Empty() {
			out.Pairs = append(out.Pairs, pairStats{From: p, To: q, Count: pq.Count, Min: pq.Min, Max: pq.Max})
		}
	})
	slices.SortFunc(out.Pairs, func(a, b pairStats) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return json.Marshal(out)
}

// UnmarshalJSON decodes a table serialized by MarshalJSON.
func (t *Table) UnmarshalJSON(data []byte) error {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("trace: decode table: %w", err)
	}
	if in.Processors < 0 || in.Processors > math.MaxInt32 {
		return fmt.Errorf("trace: decode table: processor count %d out of range [0,%d]", in.Processors, math.MaxInt32)
	}
	*t = *NewTable(in.Processors, false)
	for _, p := range in.Pairs {
		if p.Count <= 0 {
			return fmt.Errorf("trace: decode table: pair p%d->p%d has count %d", p.From, p.To, p.Count)
		}
		if err := t.MergeStats(p.From, p.To, DirStats{Count: p.Count, Min: p.Min, Max: p.Max}); err != nil {
			return err
		}
	}
	return nil
}
