package graph

import "math"

// SCCScratch holds the reusable state of SCCDense. The zero value is
// ready; buffers grow to the largest n seen and are then reused.
type SCCScratch struct {
	index   []int
	low     []int
	onStack []bool
	stack   []int // Tarjan stack
	callV   []int // DFS call stack: node
	callE   []int // DFS call stack: next column to scan
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
	n := w.n
	s.reset(n)
	counter := 0
	comps := 0

	for root := 0; root < n; root++ {
		if s.index[root] != -1 {
			continue
		}
		s.callV = append(s.callV, root)
		s.callE = append(s.callE, 0)
		s.index[root] = counter
		s.low[root] = counter
		counter++
		s.stack = append(s.stack, root)
		s.onStack[root] = true

		for len(s.callV) > 0 {
			top := len(s.callV) - 1
			v := s.callV[top]
			row := w.data[v*n : v*n+n]
			advanced := false
			for s.callE[top] < n {
				j := s.callE[top]
				s.callE[top]++
				if j == v || math.IsInf(row[j], 1) {
					continue
				}
				if s.index[j] == -1 {
					s.index[j] = counter
					s.low[j] = counter
					counter++
					s.stack = append(s.stack, j)
					s.onStack[j] = true
					s.callV = append(s.callV, j)
					s.callE = append(s.callE, 0)
					advanced = true
					break
				}
				if s.onStack[j] && s.index[j] < s.low[v] {
					s.low[v] = s.index[j]
				}
			}
			if advanced {
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
