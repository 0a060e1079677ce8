package obs

import "time"

// Now reads the process wall/monotonic clock. It is the one sanctioned
// wall-clock read for observer phase timings in the deterministic
// pipeline packages (internal/core, internal/sim, internal/graph,
// internal/delay, internal/model): the shifting framework's guarantees
// (paper §2, §4.1–4.2) assume simulated executions are replayable, so
// those packages never call time.Now themselves (the wallclock analyzer
// in internal/analysis enforces this), and a timing read never feeds a
// result.
func Now() time.Time { return time.Now() }
