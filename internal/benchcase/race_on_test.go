//go:build race

package benchcase

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = true
