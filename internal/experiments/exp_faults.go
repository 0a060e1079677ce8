package experiments

import (
	"fmt"
	"math/rand"

	"clocksync/internal/core"
	"clocksync/internal/dist"
	"clocksync/internal/sim"
)

// D2FaultTolerance measures graceful degradation of the fault-tolerant
// leader protocol: report loss thins the leader's view and crash-stop
// processors lose a direction of statistics on each of their links, yet
// the degraded precision stays sound for the component it covers.
func D2FaultTolerance(seed int64) (*Table, error) {
	t := &Table{
		ID:    "D2",
		Title: "Fault tolerance: degraded quorum synchronization",
		Claim: "crashes and report loss degrade the guarantee gracefully: the leader computes from whichever reports arrive, the precision covers exactly the synchronized component, and the realized error never exceeds it",
		Columns: []string{"series", "x", "missing", "applied", "synced",
			"precision", "realized", "rho<=prec"},
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		n      = 8
		lb, ub = 0.05, 0.2
		k      = 3
	)
	// dist.Run drives the protocol from cfg; s's protocol section is unused.
	s := instance(n, 0, ring, link(symBounds(lb, ub), uniform(lb, ub)), k)
	s.StartSpread = 1
	floodOnly := func(payload any) bool {
		switch payload.(type) {
		case dist.Report, dist.ResultMsg:
			return true
		}
		return false
	}

	// runCase executes one faulty run and appends its row. mkFaults sees
	// the drawn start times so crash instants can sit mid-window.
	runCase := func(series, x string, retries int, mkFaults func(starts []float64, cfg dist.Config) *sim.Faults) error {
		b, err := build(s, rng)
		if err != nil {
			return fmt.Errorf("D2(%s,%s): %w", series, x, err)
		}
		cfg := dist.Config{
			Leader: 0, Links: b.Links, Probes: k, Spacing: 0.01,
			Warmup: sim.SafeWarmup(b.Starts) + 0.5, Window: 1,
			ReportGrace: 2, Retries: retries,
		}
		b.RunCfg.Faults = mkFaults(b.Starts, cfg)
		out, _, err := dist.Run(b.Net, cfg, b.RunCfg)
		if err != nil {
			return fmt.Errorf("D2(%s,%s): %w", series, x, err)
		}
		if out.Synced == nil {
			return fmt.Errorf("D2(%s,%s): leader never computed", series, x)
		}
		applied, synced := 0, 0
		for p := range out.Applied {
			if out.Applied[p] {
				applied++
			}
			if out.Synced[p] {
				synced++
			}
		}
		// Realized error over the covered processors only: the guarantee
		// speaks for nodes that are in the synchronized component AND
		// received their correction.
		realized, err := core.RhoOver(b.Starts, out.Corrections, func(p int) bool { return out.Applied[p] && out.Synced[p] })
		if err != nil {
			return err
		}
		t.AddRow(series, x, fi(len(out.Missing)), fi(applied), fi(synced),
			f(out.Precision), f(realized), fb(realized <= out.Precision+1e-9))
		return nil
	}

	// Series 1: independent loss on the report/result floods. Few retries
	// on purpose, so loss actually costs reports rather than being fully
	// repaired.
	for _, loss := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		err := runCase("flood loss", fmt.Sprintf("%.1f", loss), 2,
			func([]float64, dist.Config) *sim.Faults {
				if loss == 0 {
					return nil
				}
				return &sim.Faults{Loss: loss, LossFilter: floodOnly}
			})
		if err != nil {
			return nil, err
		}
	}

	// Series 2: crash-stop faults mid-window, after the probes but before
	// the report: each crashed processor's links keep the surviving
	// neighbor's incoming direction (Lemma 6.1) and lose the other, so
	// the crashed node stays in the component but uncorrected.
	for _, crashes := range []int{1, 2, 3} {
		err := runCase("crashes", fmt.Sprintf("%d", crashes), 0,
			func(starts []float64, cfg dist.Config) *sim.Faults {
				fl := &sim.Faults{}
				for i := 0; i < crashes; i++ {
					proc := n - 1 - i // consecutive arc opposite the leader
					fl.Crashes = append(fl.Crashes, sim.Crash{
						Proc: proc, At: starts[proc] + cfg.Warmup + 0.5,
					})
				}
				return fl
			})
		if err != nil {
			return nil, err
		}
	}

	t.Notes = append(t.Notes,
		"n=8 ring, symmetric bounds [0.05, 0.2], k=3 probes, report grace 2; missing/applied/synced count processors out of 8",
		"flood loss uses Retries=2 so heavy loss genuinely costs reports; crashed processors strike after probing, so their links keep one direction of statistics plus the declared bounds",
		"precision is always the leader component's A_max: it grows as information is lost but keeps dominating the realized error of the covered processors",
	)
	return t, nil
}
