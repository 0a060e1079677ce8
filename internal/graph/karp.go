package graph

// MeanCycle is the result of a maximum-mean-cycle computation.
type MeanCycle struct {
	// Mean is the optimal cycle mean.
	Mean float64
	// Cycle is one optimal (critical) cycle as a node sequence with the
	// first node repeated at the end, following edge direction. It may be
	// nil in degenerate numerical cases; Mean is always valid.
	Cycle []int
}

// normalizeCycle returns nil for a cycle of fewer than two entries and
// otherwise closes it (first == last).
func normalizeCycle(c []int) []int {
	if len(c) < 2 {
		return nil
	}
	if c[0] != c[len(c)-1] {
		c = append(c, c[0])
	}
	return c
}
