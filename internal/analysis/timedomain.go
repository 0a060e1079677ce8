package analysis

// timedomain: machine-check the paper's scalar-domain discipline.
//
// The formalism distinguishes absolute real times t, clock readings
// H_p(t) = t - S_p, shifts, message delays, and (in this repo)
// wall-clock measurement durations — yet all five live as bare float64.
// This analyzer seeds abstract domains from the well-known struct fields
// and signatures of internal/model, internal/delay, internal/sim,
// internal/trace and internal/obs, propagates them with the dataflow
// engine (dataflow.go), and reports arithmetic that crosses domains the
// algebra forbids: adding two absolute times or two clock readings,
// relating shifts to raw delays except through mls (Lemma 6.2), and any
// mixing of the simulated and wall clock axes.
//
// Unreachable seeds can be declared in source:
//
//	//clocklint:domain clock rationale...
//
// on a struct field, var, parameter, or function declaration (for a
// function it declares the result domain).

var timedomainPkgs = []string{
	"internal/model",
	"internal/delay",
	"internal/core",
	"internal/sim",
	"internal/drift",
	"internal/trace",
	"internal/round",
}

// timedomainFields seeds struct fields by "pkgSuffix.Type.Field".
var timedomainFields = map[string]Domain{
	// model: the paper's execution structures.
	"internal/model.History.Start":     DomRealTime, // S_p
	"internal/model.Step.Clock":        DomClock,
	"internal/model.Event.At":          DomClock, // timer set-for clock time
	"internal/model.Message.SendClock": DomClock,
	"internal/model.Message.RecvClock": DomClock,
	// trace: estimated-delay statistics.
	"internal/trace.Sample.SendClock": DomClock,
	"internal/trace.Sample.RecvClock": DomClock,
	"internal/trace.DirStats.Min":     DomDelay,
	"internal/trace.DirStats.Max":     DomDelay,
	// delay: assumption bounds are delay-valued.
	"internal/delay.Range.LB":  DomDelay,
	"internal/delay.Range.UB":  DomDelay,
	"internal/delay.RTTBias.B": DomDelay,
	// sim: the event queue lives on the simulated real-time axis.
	"internal/sim.Network.starts": DomRealTime,
	"internal/sim.Env.now":        DomRealTime,
	"internal/sim.event.time":     DomRealTime,
	"internal/sim.event.sendRel":  DomClock,
	"internal/sim.engine.horizon": DomRealTime,
	"internal/sim.engine.crashAt": DomRealTime,
}

// timedomainCalls seeds known functions and methods by
// "pkgSuffix.Recv.Name": result domains plus parameter domains by name.
var timedomainCalls = map[string]dfCallSpec{
	"internal/model.History.RealTime":       {results: []Domain{DomRealTime}},
	"internal/model.Message.Delay":          {results: []Domain{DomDelay}},
	"internal/model.Message.EstimatedDelay": {results: []Domain{DomDelay}},
	"internal/trace.Sample.EstimatedDelay":  {results: []Domain{DomDelay}},
	"internal/sim.Env.Clock":                {results: []Domain{DomClock}},
	// Every Assumption implementation returns the two mls values.
	"internal/delay.Assumption.MLS": {results: []Domain{DomShift, DomShift}},
	"internal/delay.Bounds.MLS":     {results: []Domain{DomShift, DomShift}},
	"internal/delay.RTTBias.MLS":    {results: []Domain{DomShift, DomShift}},
	"internal/delay.Intersect.MLS":  {results: []Domain{DomShift, DomShift}},
	// obs sinks: sim-axis span plumbing vs wall-axis phase metrics.
	"internal/obs.Trace.AddSim":               {params: map[string]Domain{"startClock": DomClock, "seconds": DomSimDur}},
	"internal/obs.Trace.AddSimChild":          {params: map[string]Domain{"startClock": DomClock, "seconds": DomSimDur}},
	"internal/obs.PhaseObserver.ObservePhase": {params: map[string]Domain{"seconds": DomWallDur}},
	"internal/obs.PhaseFunc.ObservePhase":     {params: map[string]Domain{"seconds": DomWallDur}},
	// time.Duration.Seconds() is by construction a wall duration.
	"time.Duration.Seconds": {results: []Domain{DomWallDur}},
}

// timedomainParamName seeds parameters of repo-local functions by name.
// The table is deliberately tight: generic names like t, now, lb carry
// different domains in different packages and are left to inference.
func timedomainParamName(name string) Domain {
	switch name {
	case "sendRel", "recvRel":
		return DomClock
	case "mls", "mlsPQ", "mlsQP":
		return DomShift
	case "est":
		return DomDelay
	}
	if len(name) > len("Clock") && name[len(name)-len("Clock"):] == "Clock" {
		return DomClock
	}
	return DomNone
}

var TimeDomain = &Analyzer{
	Name: "timedomain",
	Doc: "check the paper's time-domain discipline: real times, clock readings, " +
		"shifts, delays, and wall durations must not mix outside the domain algebra",
	Run: runTimedomain,
}

func runTimedomain(pass *Pass) error {
	if !pkgMatches(pass.Pkg.Path(), timedomainPkgs) {
		return nil
	}
	cfg := &dfConfig{
		fieldDomains: timedomainFields,
		callDomains:  timedomainCalls,
		paramName:    timedomainParamName,
	}
	newDFA(pass, cfg).Run()
	return nil
}
