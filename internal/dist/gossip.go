package dist

import (
	"fmt"

	"clocksync/internal/model"
	"clocksync/internal/sim"
)

// GossipRun executes the decentralized variant: reports are flooded to
// everyone (which the protocol already does) and EVERY processor runs the
// coordinator round locally once it has all n reports — no result flood.
// Each node also fires the report deadline: at clock
// Warmup+Window+ReportGrace it computes from whichever reports it has, so
// lost floods and crashed peers degrade the local result instead of
// wedging it. Excision and AuthKeys apply on every node exactly as at the
// leader; the Outcome's round fields are the leader node's.
//
// As with Run, the returned execution holds the probes only.
//
// On a fault-free run all processors compute on identical tables and the
// returned Outcome additionally asserts exact agreement. With faults
// injected, nodes may see different report subsets; the per-node vectors
// are returned for the caller to compare (re-floods via Retries drive
// them back together on lossy networks).
func GossipRun(net *sim.Network, cfg Config, runCfg sim.RunConfig) (*Outcome, *model.Execution, error) {
	n := net.N()
	perNode := make([][]float64, n)
	factory, out, err := newFactory(n, cfg, perNode)
	if err != nil {
		return nil, nil, err
	}
	runCfg.Faults = withReportMutator(runCfg.Faults, cfg.AuthKeys)
	exec, err := sim.Run(net, factory, runCfg)
	if err != nil {
		return nil, nil, err
	}
	out.PerNode = perNode
	if out.Err != nil {
		return out, exec, fmt.Errorf("dist: gossip computation: %w", out.Err)
	}
	for p := 0; p < n; p++ {
		if perNode[p] == nil {
			if runCfg.Faults == nil {
				return out, exec, fmt.Errorf("dist: p%d never completed its local computation", p)
			}
			continue
		}
		out.Corrections[p] = perNode[p][p]
		out.Applied[p] = true
		if runCfg.Faults != nil {
			continue
		}
		// Agreement check: every node's full vector must match node 0's
		// bit-for-bit — gossiped re-floods replay the identical
		// deterministic computation, so exact equality is required.
		for q := 0; q < n; q++ {
			if perNode[p][q] != perNode[0][q] { //clocklint:allow floateq
				return out, exec, fmt.Errorf("dist: p%d disagrees with p0 on p%d's correction", p, q)
			}
		}
	}
	return out, exec, nil
}
