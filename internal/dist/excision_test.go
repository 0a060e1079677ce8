package dist

import (
	"math/rand"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/round"
	"clocksync/internal/sim"
)

// TestExcisionAllHonestBitIdentical: with every reporter honest, enabling
// Excision excises nothing and the corrections and precision are
// bit-identical to the baseline run — the defense is free when unneeded.
func TestExcisionAllHonestBitIdentical(t *testing.T) {
	run := func(excise bool) *Outcome {
		rng := rand.New(rand.NewSource(101))
		net, links, starts := setup(t, rng, 6, sim.Complete(6), 0.05, 0.2)
		cfg := Config{
			Leader: 0, Links: links, Probes: 3, Spacing: 0.01,
			Warmup: sim.SafeWarmup(starts) + 0.5, Window: 1, ReportGrace: 2,
			Excision: excise,
		}
		out, _, err := Run(net, cfg, sim.RunConfig{Seed: 7})
		if err != nil {
			t.Fatalf("Run(excise=%v): %v", excise, err)
		}
		return out
	}
	base, defended := run(false), run(true)
	if len(defended.Excised) != 0 || len(defended.Equivocators) != 0 || len(defended.ExcisedLinks) != 0 {
		t.Fatalf("honest run excised something: %v / %v / %v",
			defended.Excised, defended.Equivocators, defended.ExcisedLinks)
	}
	if defended.Degraded {
		t.Fatal("honest run marked degraded")
	}
	if base.Precision != defended.Precision { //clocklint:allow floateq — bit-identity is the claim
		t.Fatalf("precision drifted: %v vs %v", base.Precision, defended.Precision)
	}
	for p := range base.Corrections {
		if base.Corrections[p] != defended.Corrections[p] { //clocklint:allow floateq — bit-identity is the claim
			t.Fatalf("correction %d drifted: %v vs %v", p, base.Corrections[p], defended.Corrections[p])
		}
	}
}

// TestExcisionSingleLinkLiars: when both reporters of ONE link lie about
// it (a Byzantine majority on that link), blame cannot be attributed to
// either side — the link's statistics are excised instead. The outcome is
// degraded, no reporter is removed, and the corrections computed from the
// surviving (honest) statistics stay within the claimed precision: the
// coordinator is never silently wrong.
func TestExcisionSingleLinkLiars(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 4
	net, links, starts := setup(t, rng, n, sim.Complete(n), 0.05, 0.2)
	// Both endpoints of {1,2} deflate that link's statistics far enough
	// that the round-trip sum leaves the [2*lb, 2*ub] envelope; their
	// other links stay truthful, so each side is implicated by exactly
	// one link and neither can be blamed over the other.
	mut := func(b sim.Byzantine, from, to int, payload any) (any, bool) {
		rep, ok := payload.(Report)
		if !ok || int(rep.Origin) != b.Proc {
			return payload, false
		}
		out := make([]DirReport, len(rep.Links))
		copy(out, rep.Links)
		changed := false
		for i, dr := range out {
			onLink := (dr.From == 1 && dr.To == 2) || (dr.From == 2 && dr.To == 1)
			if onLink && dr.Stats.Count > 0 {
				dr.Stats.Min -= b.Magnitude
				dr.Stats.Max -= b.Magnitude
				out[i] = dr
				changed = true
			}
		}
		if !changed {
			return payload, false
		}
		rep.Links = out
		return rep, true
	}
	faults := &sim.Faults{
		Byzantine: []sim.Byzantine{
			{Proc: 1, Strategy: sim.ByzDeflate, Magnitude: 0.2},
			{Proc: 2, Strategy: sim.ByzDeflate, Magnitude: 0.2},
		},
		Mutator: mut,
	}
	cfg := Config{
		Leader: 0, Links: links, Probes: 3, Spacing: 0.01,
		Warmup: sim.SafeWarmup(starts) + 0.5, Window: 1, ReportGrace: 2,
		Excision: true,
	}
	out, _, err := Run(net, cfg, sim.RunConfig{Seed: 9, Faults: faults})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.Excised) != 0 {
		t.Fatalf("excised reporters %v, want none (blame must not land on either side)", out.Excised)
	}
	if len(out.ExcisedLinks) != 1 || out.ExcisedLinks[0] != [2]model.ProcID{1, 2} {
		t.Fatalf("ExcisedLinks = %v, want [{1 2}]", out.ExcisedLinks)
	}
	if !out.Degraded {
		t.Fatal("link excision must mark the outcome degraded")
	}
	// The lie only ever cost the lied-about link: every processor is
	// still synchronized by its honest links and the guarantee holds.
	all := make([]int, n)
	for p := range all {
		all[p] = p
	}
	if rho := realizedOver(starts, out.Corrections, all); rho > out.Precision+1e-9 {
		t.Fatalf("realized %v exceeds precision %v after link excision", rho, out.Precision)
	}
}

// TestGossipExcisesSignedLiar: gossip runs the same coordinator round as
// the leader, so Excision and AuthKeys work there too. A liar signing
// inflated statistics with its own key passes authentication; the round's
// consistency checks excise it in the leader's outcome instead of the
// run failing infeasible.
func TestGossipExcisesSignedLiar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 5
	net, links, starts := setup(t, rng, n, sim.Complete(n), 0.05, 0.2)
	cfg := Config{
		Leader: 0, Links: links, Probes: 3, Spacing: 0.01,
		Warmup: sim.SafeWarmup(starts) + 0.5, Window: 1, ReportGrace: 2,
		Excision: true, AuthKeys: round.DeriveKeys(n, 3),
	}
	faults := &sim.Faults{Byzantine: []sim.Byzantine{{Proc: 3, Strategy: sim.ByzInflate, Magnitude: 0.5}}}
	out, _, err := GossipRun(net, cfg, sim.RunConfig{Seed: 13, Faults: faults})
	if err != nil {
		t.Fatalf("GossipRun: %v", err)
	}
	if len(out.Excised) != 1 || out.Excised[0] != 3 || !out.Degraded {
		t.Fatalf("excised=%v degraded=%v, want [3] excised, degraded", out.Excised, out.Degraded)
	}
	if out.AuthFailures != 0 {
		t.Fatalf("AuthFailures = %d, want 0 (the lie is signed)", out.AuthFailures)
	}
	honest := []int{0, 1, 2, 4}
	if rho := realizedOver(starts, out.PerNode[0], honest); rho > out.Precision+1e-9 {
		t.Fatalf("honest realized %v exceeds precision %v", rho, out.Precision)
	}
}

// TestExcisionEquivocatorDetected: a liar reporting different statistics
// to different peers is exposed by the flood itself — the conflicting
// waves reach the leader through different first hops, the conflict is
// pinned to the origin, and the origin is excised as an equivocator.
func TestExcisionEquivocatorDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 4
	net, links, starts := setup(t, rng, n, sim.Complete(n), 0.05, 0.2)
	cfg := Config{
		Leader: 0, Links: links, Probes: 3, Spacing: 0.01,
		Warmup: sim.SafeWarmup(starts) + 0.5, Window: 1, ReportGrace: 2,
		Excision: true,
	}
	faults := &sim.Faults{Byzantine: []sim.Byzantine{
		{Proc: 3, Strategy: sim.ByzEquivocate, Magnitude: 0.1, Seed: 5},
	}}
	out, _, err := Run(net, cfg, sim.RunConfig{Seed: 11, Faults: faults})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.Equivocators) != 1 || out.Equivocators[0] != 3 {
		t.Fatalf("Equivocators = %v, want [3]", out.Equivocators)
	}
	if len(out.Excised) != 1 || out.Excised[0] != 3 {
		t.Fatalf("Excised = %v, want [3]", out.Excised)
	}
	if !out.Degraded {
		t.Fatal("equivocator excision must mark the outcome degraded")
	}
	honest := []int{0, 1, 2}
	if rho := realizedOver(starts, out.Corrections, honest); rho > out.Precision+1e-9 {
		t.Fatalf("honest realized %v exceeds precision %v", rho, out.Precision)
	}
}
