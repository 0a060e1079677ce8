// Byzantine report corruption and report authentication for the dist
// protocol.
//
// The sim engine never inspects payloads; sim.Faults carries generic
// Byzantine entries and this file supplies the protocol-aware
// sim.PayloadMutator that interprets them for Report payloads. The
// mutator rewrites only the reports a lying node *originates* — reports
// it merely forwards travel untouched, because wire tampering is the
// authenticated-transport concern (internal/netsync), not the lying-
// reporter fault model.
//
// Authentication (Config.AuthKeys) signs every emitted report's frozen
// content with the origin's key (internal/round), and computing nodes drop
// reports whose MAC does not verify.
package dist

import (
	"clocksync/internal/model"
	"clocksync/internal/round"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
)

// DeriveKeys forwards to round.DeriveKeys. It stays only because the
// clockbench command calls it; the next change to clockbench deletes it.
func DeriveKeys(n int, seed int64) round.Keyring { return round.DeriveKeys(n, seed) }

// signReport returns the MAC of a report's content under key.
func signReport(key []byte, origin model.ProcID, links []DirReport) []byte {
	return round.Sign(key, round.AppendReport(make([]byte, 0, 8+40*len(links)), origin, links))
}

// withReportMutator installs the dist report mutator on fault schedules
// that carry Byzantine entries but no protocol mutator yet, leaving the
// caller's Faults value untouched (shallow copy). keys lets mutated
// own-origin reports stay correctly signed when the run authenticates.
func withReportMutator(f *sim.Faults, keys round.Keyring) *sim.Faults {
	if f == nil || len(f.Byzantine) == 0 || f.Mutator != nil {
		return f
	}
	ff := *f
	ff.Mutator = NewReportMutator(keys)
	return &ff
}

// NewReportMutator returns the payload mutator interpreting sim.Byzantine
// strategies for dist Report payloads. keys is the protocol keyring
// (Config.AuthKeys) or nil for unauthenticated runs; the mutator re-signs
// own-origin lies with the liar's own key, and signs forgeries with the
// only key the forger holds — its own — so they fail verification.
//
// Mutators must be pure functions of their arguments (sim contract), so
// every strategy below derives its perturbations from the entry's fields
// and the directed hop alone.
func NewReportMutator(keys round.Keyring) sim.PayloadMutator {
	return func(b sim.Byzantine, from, to int, payload any) (any, bool) {
		rep, ok := payload.(Report)
		if !ok || int(rep.Origin) != b.Proc {
			return payload, false
		}
		switch b.Strategy {
		case sim.ByzInflate:
			return signOwn(shiftReport(rep, func(int) float64 { return b.Magnitude }), keys), true
		case sim.ByzDeflate:
			return signOwn(shiftReport(rep, func(int) float64 { return -b.Magnitude }), keys), true
		case sim.ByzSkew:
			// Alternating per-link signs in the report's neighbor order: a
			// directional lie. Unlike a uniform shift (equivalent to moving
			// the liar's own start time, which only corrupts the liar's
			// correction), the alternation tightens honest-pair constraints
			// and corrupts corrections between honest processors.
			return signOwn(shiftReport(rep, func(i int) float64 {
				if i%2 == 0 {
					return b.Magnitude
				}
				return -b.Magnitude
			}), keys), true
		case sim.ByzEquivocate:
			// A different uniform shift per destination, derived from the
			// strategy seed: peers receive mutually inconsistent versions.
			off := b.Magnitude * hashUnit(b.Seed, b.Proc, to)
			return signOwn(shiftReport(rep, func(int) float64 { return off }), keys), true
		case sim.ByzForge:
			return forgeReport(rep, b, keys), true
		}
		return payload, false
	}
}

// shiftReport returns a copy of the report with off(i) added to the i-th
// link's Min and Max (preserving Min <= Max and the empty conventions:
// zero-count links stay untouched).
func shiftReport(rep Report, off func(i int) float64) Report {
	links := make([]DirReport, len(rep.Links))
	for i, dr := range rep.Links {
		if dr.Stats.Count > 0 {
			d := off(i)
			dr.Stats = trace.DirStats{Count: dr.Stats.Count, Min: dr.Stats.Min + d, Max: dr.Stats.Max + d}
		}
		links[i] = dr
	}
	rep.Links = links
	return rep
}

// signOwn re-signs a (mutated) own-origin report with the origin's key
// when a keyring is configured: the adversary holds its own key, so its
// lies about its own measurements verify.
func signOwn(rep Report, keys round.Keyring) Report {
	if keys != nil && int(rep.Origin) >= 0 && int(rep.Origin) < len(keys) {
		rep.MAC = signReport(keys[rep.Origin], rep.Origin, rep.Links)
	}
	return rep
}

// forgeReport replaces the forger's own report with one impersonating its
// highest-numbered neighbor (the last link in the frozen neighbor order),
// claiming a deflated version of that link's statistics in the victim's
// name. The forger cannot sign in the victim's name — it only holds its
// own key — so under authentication the forgery is dropped on arrival;
// without authentication it collides with the victim's genuine report and
// (under excision) flags the honest victim as an equivocator: degraded,
// but never silently wrong.
func forgeReport(rep Report, b sim.Byzantine, keys round.Keyring) Report {
	if len(rep.Links) == 0 {
		return rep
	}
	last := rep.Links[len(rep.Links)-1]
	victim := last.From
	st := last.Stats
	if st.Count > 0 {
		st = trace.DirStats{Count: st.Count, Min: st.Min - b.Magnitude, Max: st.Max - b.Magnitude}
	}
	forged := Report{
		Origin: victim,
		Round:  rep.Round,
		Links:  []DirReport{{From: model.ProcID(b.Proc), To: victim, Stats: st}},
	}
	if keys != nil && b.Proc >= 0 && b.Proc < len(keys) {
		forged.MAC = signReport(keys[b.Proc], forged.Origin, forged.Links)
	}
	return forged
}

// hashUnit maps (seed, a, b) to a deterministic value in [-1, 1] with a
// splitmix64-style finalizer. Pure hashing instead of math/rand keeps the
// mutator replayable: the same (entry, hop) always lies the same way.
func hashUnit(seed int64, a, b int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(a))<<32 + uint64(int64(b)) + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53)*2 - 1
}
