package graph

import (
	"math"
	"testing"
)

func TestNewGraphSizes(t *testing.T) {
	tests := []struct {
		name string
		n    int
		want int
	}{
		{name: "empty", n: 0, want: 0},
		{name: "one", n: 1, want: 1},
		{name: "many", n: 17, want: 17},
		{name: "negative clamps to zero", n: -3, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewCSR(tt.n).N(); got != tt.want {
				t.Errorf("NewCSR(%d).N() = %d, want %d", tt.n, got, tt.want)
			}
			if got := NewDense(tt.n).N(); got != tt.want {
				t.Errorf("NewDense(%d).N() = %d, want %d", tt.n, got, tt.want)
			}
		})
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewCSR(3)
	tests := []struct {
		name    string
		from    int
		to      int
		w       float64
		wantErr bool
	}{
		{name: "valid", from: 0, to: 1, w: 1.5},
		{name: "negative weight ok", from: 1, to: 2, w: -4},
		{name: "zero weight ok", from: 2, to: 0, w: 0},
		{name: "self loop ok", from: 1, to: 1, w: 2},
		{name: "source out of range", from: 3, to: 0, w: 1, wantErr: true},
		{name: "negative source", from: -1, to: 0, w: 1, wantErr: true},
		{name: "target out of range", from: 0, to: 9, w: 1, wantErr: true},
		{name: "nan weight", from: 0, to: 1, w: math.NaN(), wantErr: true},
		{name: "neg inf weight", from: 0, to: 1, w: math.Inf(-1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.from, tt.to, tt.w)
			if (err != nil) != tt.wantErr {
				t.Errorf("AddEdge(%d,%d,%v) error = %v, wantErr %v", tt.from, tt.to, tt.w, err, tt.wantErr)
			}
		})
	}
}

func TestAddEdgeInfIsAbsent(t *testing.T) {
	g := NewCSR(2)
	if err := g.AddEdge(0, 1, math.Inf(1)); err != nil {
		t.Fatalf("AddEdge(+Inf) error: %v", err)
	}
	if g.Pending() != 0 {
		t.Errorf("Pending() = %d after +Inf edge, want 0", g.Pending())
	}
}

// TestMatrixRoundTrip: a row-sliced matrix survives Dense and CSR round
// trips, with +Inf entries and the diagonal dropped from the CSR.
func TestMatrixRoundTrip(t *testing.T) {
	m := NewMatrix(3, Inf)
	for i := range m {
		m[i][i] = 0
	}
	m[0][1] = 2
	m[1][2] = -1

	d, err := DenseFromRows(m)
	if err != nil {
		t.Fatalf("DenseFromRows: %v", err)
	}
	m[0][1] = 99 // DenseFromRows copies
	rows := d.Rows()
	if rows[0][1] != 2 || rows[1][2] != -1 || !math.IsInf(rows[2][0], 1) || rows[1][1] != 0 {
		t.Errorf("round-trip rows = %v", rows)
	}

	var g CSR
	g.FromDense(d)
	if g.Nnz() != 2 {
		t.Errorf("round-trip Nnz() = %d, want 2", g.Nnz())
	}
}

func TestFromMatrixRagged(t *testing.T) {
	if _, err := DenseFromRows([][]float64{{0, 1}, {0}}); err == nil {
		t.Error("DenseFromRows(ragged) error = nil, want non-nil")
	}
}

func TestCloneMatrixIndependence(t *testing.T) {
	w := NewMatrix(2, 7)
	c := CloneMatrix(w)
	c[0][0] = -1
	if w[0][0] != 7 {
		t.Errorf("CloneMatrix aliases the input: w[0][0] = %v", w[0][0])
	}
}
