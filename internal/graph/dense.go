package graph

import "fmt"

// Dense is a square float64 matrix stored in a single contiguous backing
// array, indexed with a row stride. It is the zero-allocation substrate of
// the dense graph kernels: a Dense can be Reset to a new size without
// reallocating as long as the capacity suffices, so hot loops that
// repeatedly build weight matrices (the SHIFTS pipeline, gossip rounds,
// experiment sweeps) stop churning the garbage collector.
//
// The zero value is an empty matrix ready for Reset.
type Dense struct {
	n    int
	data []float64
}

// NewDense returns an n×n matrix with all entries zero.
func NewDense(n int) *Dense {
	d := &Dense{}
	d.Reset(n)
	return d
}

// Reset resizes the matrix to n×n, reusing the backing array when it is
// large enough. The contents after Reset are unspecified; call Fill (or
// overwrite every entry) before reading.
func (d *Dense) Reset(n int) {
	if n < 0 {
		n = 0
	}
	d.n = n
	if cap(d.data) < n*n {
		d.data = make([]float64, n*n)
	} else {
		d.data = d.data[:n*n]
	}
}

// N returns the dimension.
func (d *Dense) N() int { return d.n }

// At returns entry (i, j).
func (d *Dense) At(i, j int) float64 { return d.data[i*d.n+j] }

// Set assigns entry (i, j).
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.n+j] = v }

// Row returns row i as a slice aliasing the backing array.
func (d *Dense) Row(i int) []float64 { return d.data[i*d.n : i*d.n+d.n : i*d.n+d.n] }

// Data returns the backing array in row-major order, aliased.
func (d *Dense) Data() []float64 { return d.data }

// Fill sets every entry to v.
func (d *Dense) Fill(v float64) {
	for i := range d.data {
		d.data[i] = v
	}
}

// FillDiag sets every diagonal entry to v.
func (d *Dense) FillDiag(v float64) {
	for i := 0; i < d.n; i++ {
		d.data[i*d.n+i] = v
	}
}

// CopyFrom resizes d to match src and copies its contents.
func (d *Dense) CopyFrom(src *Dense) {
	d.Reset(src.n)
	copy(d.data, src.data)
}

// SetRows resizes d to len(w) and copies the row-sliced matrix w into the
// flat layout. It returns an error if w is not square.
func (d *Dense) SetRows(w [][]float64) error {
	n := len(w)
	d.Reset(n)
	for i, row := range w {
		if len(row) != n {
			return fmt.Errorf("graph: matrix row %d has %d entries, want %d", i, len(row), n)
		}
		copy(d.data[i*n:i*n+n], row)
	}
	return nil
}

// Rows returns a row-header view of the matrix: a [][]float64 whose rows
// alias the backing array. Mutating the returned rows mutates the Dense
// (and vice versa); the headers themselves are freshly allocated.
func (d *Dense) Rows() [][]float64 {
	return d.RowsInto(nil)
}

// RowsInto is Rows reusing the header slice hdrs when it has capacity,
// for allocation-free steady state.
func (d *Dense) RowsInto(hdrs [][]float64) [][]float64 {
	if cap(hdrs) < d.n {
		hdrs = make([][]float64, d.n)
	} else {
		hdrs = hdrs[:d.n]
	}
	for i := range hdrs {
		hdrs[i] = d.Row(i)
	}
	return hdrs
}

// TransposeInto writes the transpose of d into dst (resized as needed).
// dst must not alias d.
func (d *Dense) TransposeInto(dst *Dense) {
	n := d.n
	dst.Reset(n)
	for i := 0; i < n; i++ {
		row := d.data[i*n : i*n+n]
		for j, v := range row {
			dst.data[j*n+i] = v
		}
	}
}

// DenseFromRows builds a Dense copy of a row-sliced square matrix.
func DenseFromRows(w [][]float64) (*Dense, error) {
	d := &Dense{}
	if err := d.SetRows(w); err != nil {
		return nil, err
	}
	return d, nil
}
