package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/round"
	"clocksync/internal/sim"
)

// D3ByzantineResilience measures the precision guarantee under lying
// reporters, comparing three defense levels: no defense, consistency
// excision (Lemma 6.1), and excision plus HMAC-authenticated reports.
//
// The attack that matters is the directional skew: a liar that shifts
// all its reported statistics uniformly merely relocates its own start
// time (the offsets cancel on every path through it), but alternating
// per-link signs corrupt the constraints between honest processors. A
// lie large enough to matter contradicts the delay assumption outright —
// a round-trip envelope violation IS a negative 2-cycle in the solver's
// constraint graph — so the optimal algorithm fails closed: the
// no-defense coordinator collapses with an infeasibility error and no
// processor gets a correction (total loss of the guarantee, reported as
// bound=collapsed). Excision turns that collapse into sound degraded
// operation by removing exactly the liars; authentication additionally
// stops impersonation (forge), which excision alone can only degrade
// around by flagging the honest victim as an equivocator.
func D3ByzantineResilience(seed int64) (*Table, error) {
	t := &Table{
		ID:    "D3",
		Title: "Byzantine resilience: lying reporters vs excision and authentication",
		Claim: "without defenses a skewing reporter collapses the synchronization outright (a detectable lie is an infeasible constraint system — the guarantee is lost entirely); with consistency excision the liars are removed, the computation completes and the honest corrections stay within the (degraded) claimed precision, and authentication additionally pins forged reports to the forger",
		Columns: []string{"series", "defense", "byz", "missing", "excised", "equiv",
			"authfail", "precision", "honestErr", "bound", "as-expected"},
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		n      = 10
		lb, ub = 0.05, 0.2
		k      = 3
		mag    = 0.25 // lie magnitude, > ub so deflated round trips leave the envelope
	)
	// dist.Run drives the protocol from cfg; s's protocol section is unused.
	s := instance(n, 0, complete, link(symBounds(lb, ub), uniform(lb, ub)), k)

	type defense struct {
		name string
		cfg  func(c *dist.Config, authSeed int64)
	}
	defNone := defense{"none", func(*dist.Config, int64) {}}
	defExcise := defense{"excise", func(c *dist.Config, _ int64) { c.Excision = true }}
	defAuth := defense{"excise+auth", func(c *dist.Config, authSeed int64) {
		c.Excision = true
		c.AuthKeys = round.DeriveKeys(n, authSeed)
	}}

	// expect describes the robust outcome of one run; the as-expected
	// verdict fails the row (and the golden gate) when behavior drifts.
	type expect struct {
		collapse   bool // leader fails with an infeasible constraint system
		boundHolds bool // honest corrections within the claimed precision
		excised    int  // reporters removed by the consistency checks
		minEquiv   int  // at least this many flagged equivocators
		minAuth    int  // at least this many MAC-rejected origins
		missing    int  // reports that never arrived (forgers discard their own)
	}

	runCase := func(series string, d defense, byz []sim.Byzantine, want expect) error {
		// The auth seed is drawn between the starts and the run seed.
		s.Starts = sim.UniformStarts(rng, n, 1)
		b, err := s.Build()
		if err != nil {
			return fmt.Errorf("D3(%s,%s): %w", series, d.name, err)
		}
		cfg := dist.Config{
			Leader: 0, Links: b.Links, Probes: k, Spacing: 0.01,
			Warmup: sim.SafeWarmup(b.Starts) + 0.5, Window: 1, ReportGrace: 2,
		}
		authSeed := rng.Int63()
		d.cfg(&cfg, authSeed)
		var faults *sim.Faults
		if len(byz) > 0 {
			faults = &sim.Faults{Byzantine: byz}
		}
		out, _, err := dist.Run(b.Net, cfg, sim.RunConfig{Seed: rng.Int63(), Faults: faults})
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				// The lies contradicted the delay assumption and the
				// constraint system went infeasible: the coordinator
				// fails closed, nobody receives a correction.
				t.AddRow(series, d.name, fi(len(byz)), "-", "-", "-", "-", "-", "-",
					"collapsed", fb(want.collapse))
				return nil
			}
			return fmt.Errorf("D3(%s,%s): %w", series, d.name, err)
		}
		if out.Synced == nil {
			return fmt.Errorf("D3(%s,%s): leader never computed", series, d.name)
		}

		// Honest-pair discrepancy: the guarantee is judged only on honest
		// processors that are covered (synced) and corrected (applied) —
		// liars' own corrections are forfeit by definition.
		liar := make(map[int]bool, len(byz))
		for _, b := range byz {
			liar[b.Proc] = true
		}
		honestErr, err := core.RhoOver(b.Starts, out.Corrections, func(p int) bool {
			return !liar[p] && out.Applied[p] && out.Synced[p]
		})
		if err != nil {
			return err
		}
		holds := honestErr <= out.Precision+1e-9
		bound := "holds"
		if !holds {
			bound = "violated"
		}
		asExpected := !want.collapse &&
			holds == want.boundHolds &&
			len(out.Excised) == want.excised &&
			len(out.Equivocators) >= want.minEquiv &&
			out.AuthFailures >= want.minAuth &&
			len(out.Missing) == want.missing
		t.AddRow(series, d.name, fi(len(byz)), fi(len(out.Missing)), fi(len(out.Excised)),
			fi(len(out.Equivocators)), fi(out.AuthFailures), f(out.Precision), f(honestErr),
			bound, fb(asExpected))
		return nil
	}

	// Liars occupy the highest-numbered processors, away from leader 0.
	skewers := func(count int) []sim.Byzantine {
		var byz []sim.Byzantine
		for i := 0; i < count; i++ {
			byz = append(byz, sim.Byzantine{Proc: n - 1 - i, Strategy: sim.ByzSkew, Magnitude: mag})
		}
		return byz
	}

	// Series 1: directional skew, swept over the Byzantine count, under
	// each defense level. No defense must collapse for every count >= 1
	// (the deflated round trips leave the envelope, which is exactly a
	// negative 2-cycle); excision must remove exactly the liars and
	// complete with the bound intact.
	for _, count := range []int{0, 1, 2, 3} {
		for _, d := range []defense{defNone, defExcise, defAuth} {
			want := expect{boundHolds: true}
			if count > 0 {
				want = expect{collapse: true}
			}
			if d.name != "none" {
				want = expect{boundHolds: true, excised: count}
			}
			if err := runCase("skew", d, skewers(count), want); err != nil {
				return nil, err
			}
		}
	}

	// Series 2: impersonation. The forger discards its own report in
	// favor of a forged one in its victim's name, so it always counts
	// missing. Excision alone cannot attribute the conflict: the honest
	// victim is flagged as an equivocator and excised (degraded, never
	// silently wrong). Authentication rejects the forgery outright: the
	// victim's genuine report survives and nothing is excised.
	forger := []sim.Byzantine{{Proc: n - 1, Strategy: sim.ByzForge, Magnitude: mag}}
	if err := runCase("forge", defExcise, forger,
		expect{boundHolds: true, excised: 1, minEquiv: 1, missing: 1}); err != nil {
		return nil, err
	}
	if err := runCase("forge", defAuth, forger,
		expect{boundHolds: true, excised: 0, minAuth: 1, missing: 1}); err != nil {
		return nil, err
	}

	// Series 3: equivocation — different statistics to different peers.
	// The conflicting flood waves expose the liar regardless of keys (it
	// signs every version itself, so authentication does not help here;
	// detection is the excision layer's job).
	equiv := []sim.Byzantine{{Proc: n - 1, Strategy: sim.ByzEquivocate, Magnitude: mag, Seed: 17}}
	if err := runCase("equivocate", defExcise, equiv,
		expect{boundHolds: true, excised: 1, minEquiv: 1}); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		"n=10 complete graph, symmetric bounds [0.05, 0.2], k=3 probes, lie magnitude 0.25; liars occupy the highest-numbered processors",
		"bound=collapsed: the lies made the constraint system infeasible (a detectable lie is a negative cycle) and the coordinator failed closed — no corrections at all; the optimal algorithm cannot be silently mis-synchronized, it can only be denied, and excision converts that denial back into sound degraded service",
		"honestErr is the realized discrepancy over honest synced+applied processors; bound compares it against the claimed precision (the honest pairs are what the guarantee owes — a liar's own correction is forfeit)",
		"skew alternates the per-link lie sign: a uniform shift would only relocate the liar's own start time, the alternation is what corrupts honest pairs and what the consistency checks catch",
		"forge: without authentication the genuine/forged conflict can only be handled by excising the victim (sound but degraded); with keys the forgery is rejected and the victim survives",
	)
	return t, nil
}
