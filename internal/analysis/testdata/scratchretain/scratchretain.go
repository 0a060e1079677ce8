// Package scratchtest is scratchretain-analyzer testdata: values aliasing
// pooled Synchronizer/Stream arenas (core.Result fields, graph.Dense
// rows) must not be used across the calls that recycle them.
package scratchtest

import (
	"clocksync/internal/core"
	"clocksync/internal/graph"
)

func badRetain(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	c := res.Corrections
	_, _ = s.Sync(m, o)
	_, _ = s.Sync(m, o)
	return c[0] // want `c aliases pooled synchronizer scratch`
}

// badRetainCSR: SyncCSR results live in the same arenas as Sync's.
func badRetainCSR(s *core.Synchronizer, g *graph.CSR, o core.Options) float64 {
	res, _ := s.SyncCSR(g, o)
	c := res.Corrections
	_, _ = s.SyncCSR(g, o)
	_, _ = s.SyncCSR(g, o)
	return c[0] // want `c aliases pooled synchronizer scratch`
}

// okDoubleBuffered: Synchronizer results are double-buffered, so one
// following call leaves the previous result intact.
func okDoubleBuffered(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	c := res.Corrections
	_, _ = s.Sync(m, o)
	return c[0]
}

func okCloned(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	c := res.Clone()
	_, _ = s.Sync(m, o)
	_, _ = s.Sync(m, o)
	return c.Corrections[0]
}

// badDerived: an alias taken after the result already survived one call
// inherits the remaining lifetime, not a fresh one.
func badDerived(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	_, _ = s.Sync(m, o)
	c := res.Corrections
	_, _ = s.Sync(m, o)
	return c[0] // want `c aliases pooled synchronizer scratch`
}

// badStream: Stream results die on the very next Corrections call — no
// double buffering.
func badStream(st *core.Stream) (float64, error) {
	res, err := st.Corrections()
	if err != nil {
		return 0, err
	}
	c := res.Corrections
	if _, err := st.Corrections(); err != nil {
		return 0, err
	}
	return c[0], nil // want `c aliases pooled synchronizer scratch`
}

func okStreamFresh(st *core.Stream) (float64, error) {
	res, err := st.Corrections()
	if err != nil {
		return 0, err
	}
	return res.Corrections[0], nil
}

func badDenseRow(d *graph.Dense, s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	row := d.Row(0)
	_, _ = s.Sync(m, o)
	return row[0] // want `row aliases pooled synchronizer scratch`
}

// okScalar: copied scalars carry no aliasing.
func okScalar(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	p := res.Precision
	_, _ = s.Sync(m, o)
	_, _ = s.Sync(m, o)
	return p
}

// okDistinctOwners: calls on a different Synchronizer never touch this
// one's arenas.
func okDistinctOwners(s, other *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	c := res.Corrections
	_, _ = other.Sync(m, o)
	_, _ = other.Sync(m, o)
	return c[0]
}

func suppressed(s *core.Synchronizer, m [][]float64, o core.Options) float64 {
	res, _ := s.Sync(m, o)
	c := res.Corrections
	_, _ = s.Sync(m, o)
	_, _ = s.Sync(m, o)
	return c[0] //clocklint:allow scratchretain deliberately probing stale scratch
}
