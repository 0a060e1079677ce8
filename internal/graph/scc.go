package graph

import "math"

// SCCScratch holds the reusable state of SCCDense and SCCCSR. The zero
// value is ready; buffers grow to the largest n seen and are then reused.
type SCCScratch struct {
	index   []int
	low     []int
	onStack []bool
	stack   []int // Tarjan stack
	callV   []int // DFS call stack: node
	callE   []int // DFS call stack: the node's row cursor
	// CompOf[v] is the component id of node v after SCCDense or SCCCSR;
	// ids are assigned in Tarjan completion order (reverse topological
	// order of the condensation).
	CompOf []int
}

func (s *SCCScratch) reset(n int) {
	if cap(s.index) < n {
		s.index = make([]int, n)
		s.low = make([]int, n)
		s.onStack = make([]bool, n)
		s.stack = make([]int, 0, n)
		s.callV = make([]int, 0, n)
		s.callE = make([]int, 0, n)
		s.CompOf = make([]int, n)
	}
	s.index = s.index[:n]
	s.low = s.low[:n]
	s.onStack = s.onStack[:n]
	s.stack = s.stack[:0]
	s.callV = s.callV[:0]
	s.callE = s.callE[:0]
	s.CompOf = s.CompOf[:n]
	for i := 0; i < n; i++ {
		s.index[i] = -1
		s.onStack[i] = false
	}
}

// SCCDense computes the strongly connected components of the digraph whose
// edges are the finite off-diagonal entries of w (the adjacency implied by
// a shortest-path closure or any weight matrix with +Inf absences). It
// fills s.CompOf and returns the number of components, allocating nothing
// once the scratch has warmed up.
func SCCDense(w *Dense, s *SCCScratch) int {
	return tarjan(denseRows{w.data, w.n}, w.n, s)
}

// SCCCSR computes the strongly connected components of the CSR digraph g
// with the same Tarjan body as SCCDense, scanning adjacency lists instead
// of matrix rows, so the ids match SCCDense's on the same edge set.
//
// The closure of a graph has the same strongly connected components as
// the graph itself (mutual reachability is closure-invariant), so the
// sparse pipeline can partition on the raw m~ls adjacency where the dense
// pipeline partitions on the m~s closure — the components are identical.
func SCCCSR(g *CSR, s *SCCScratch) int {
	g.Build()
	return tarjan(csrRows{g.rowPtr, g.colIdx}, g.n, s)
}

// rowScanner walks the out-neighbours of a node for tarjan: first returns
// the cursor at the start of v's row; next scans on from cursor e, folds
// each neighbour already visited into v's low-link, and stops at the first
// unvisited one, returning it and the cursor past it, or ok false at the
// end of the row. The scan stays inside the implementation, so tarjan calls
// it once per visit and once per finish, not once per edge. Implementations are value types of
// distinct shapes, so each tarjan instantiation is compiled for its own row
// layout.
type rowScanner interface {
	first(v int) int
	next(s *SCCScratch, v, e int) (j, after int, ok bool)
}

// lowLink folds the visited neighbour j of v into v's low-link.
func (s *SCCScratch) lowLink(v, j int) {
	if s.onStack[j] && s.index[j] < s.low[v] {
		s.low[v] = s.index[j]
	}
}

// denseRows scans the finite off-diagonal entries of an n×n matrix.
type denseRows struct {
	data []float64
	n    int
}

func (r denseRows) first(int) int { return 0 }

func (r denseRows) next(s *SCCScratch, v, e int) (int, int, bool) {
	row := r.data[v*r.n : v*r.n+r.n]
	for j := e; j < r.n; j++ {
		if j == v || math.IsInf(row[j], 1) {
			continue
		}
		if s.index[j] == -1 {
			return j, j + 1, true
		}
		s.lowLink(v, j)
	}
	return 0, r.n, false
}

// csrRows scans the adjacency lists of a built CSR.
type csrRows struct {
	rowPtr, colIdx []int
}

func (r csrRows) first(v int) int { return r.rowPtr[v] }

func (r csrRows) next(s *SCCScratch, v, e int) (int, int, bool) {
	for ; e < r.rowPtr[v+1]; e++ {
		j := r.colIdx[e]
		if s.index[j] == -1 {
			return j, e + 1, true
		}
		s.lowLink(v, j)
	}
	return 0, e, false
}

// tarjan is the iterative Tarjan body behind SCCDense and SCCCSR: it fills
// s.CompOf with ids in completion order and returns the component count.
func tarjan[R rowScanner](rows R, n int, s *SCCScratch) int {
	s.reset(n)
	counter := 0
	comps := 0
	visit := func(v int) {
		s.index[v] = counter
		s.low[v] = counter
		counter++
		s.stack = append(s.stack, v)
		s.onStack[v] = true
		s.callV = append(s.callV, v)
		s.callE = append(s.callE, rows.first(v))
	}

	for root := 0; root < n; root++ {
		if s.index[root] != -1 {
			continue
		}
		visit(root)
		for len(s.callV) > 0 {
			top := len(s.callV) - 1
			v := s.callV[top]
			j, after, ok := rows.next(s, v, s.callE[top])
			s.callE[top] = after
			if ok {
				visit(j)
				continue
			}
			// v is finished.
			s.callV = s.callV[:top]
			s.callE = s.callE[:top]
			if top > 0 {
				parent := s.callV[top-1]
				if s.low[v] < s.low[parent] {
					s.low[parent] = s.low[v]
				}
			}
			if s.low[v] == s.index[v] {
				for {
					u := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.onStack[u] = false
					s.CompOf[u] = comps
					if u == v {
						break
					}
				}
				comps++
			}
		}
	}
	return comps
}
