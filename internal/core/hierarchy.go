package core

import (
	"fmt"
	"math"
	"slices"

	"clocksync/internal/graph"
)

// solveHierComponent solves one oversized sync component with the
// two-level hierarchical SHIFTS variant:
//
//  1. partition the component into clusters of about Options.ClusterSize
//     nodes (deterministic BFS graph growing plus two refinement sweeps
//     over the undirected adjacency);
//  2. close every cluster's intra-cluster subgraph exactly (dense
//     Floyd-Warshall per cluster, fanned across pool lanes) — m~s^c, an
//     entrywise upper bound on the true m~s that is exact for paths
//     staying inside the cluster;
//  3. contract onto the boundary nodes B (endpoints of cross-cluster
//     edges): same-cluster boundary pairs carry m~s^c, cross edges their
//     original m~ls weight. The closure D of that graph is the EXACT
//     global m~s restricted to B, because any shortest path decomposes
//     into intra-cluster segments between boundary nodes and cross
//     edges. Karp on D yields λ_B, a certified lower bound on the true
//     A_max (every B-cycle is a cycle of the full complete digraph);
//  4. bound each cluster's A_max^c against λ_B (fanned across lanes):
//     graph.MeanCycleBelow certifies A_max^c < λ_B by a margin far above
//     rounding in O(kc²) per Bellman-Ford pass, and only a cluster that
//     fails the check runs Karp on its sub-components;
//  5. synchronize the boundary (Bellman-Ford over λ − D from its first
//     node), extend into cluster interiors by multi-source Bellman-Ford
//     over λ − m~s^c with the boundary corrections pinned (fanned across
//     lanes), and compose.
//
// Steps 2 to 5 run the block steps of the exact path: closeBlock for the
// cluster closures, closeDense for D, componentAMax for λ_B and each
// A_max^c, and correctionDistances for both Bellman-Ford stages, striped
// across lanes by stripe. Their scratch is the lane's compKit; the
// clusters, D and the layout live in the caller's kit (kit.hier, kit.ms)
// and are reused across solves.
//
// The working precision λ = max(λ_B, max_c A_max^c) guarantees both
// Bellman-Ford stages are free of negative cycles. A certified cluster
// counts as A_max^c = 0: its Karp value would lie below λ_B (and a
// cluster with any cycle cannot pass when λ_B ≤ 0), so it could never
// have moved λ, and λ, the corrections and λ̂ are bit for bit those of
// running Karp on every cluster. The reported
// component precision is NOT λ but the a-posteriori certificate λ̂: the
// exact maximum of m~s(p,q) + f(q) − f(p) over intra-cluster pairs plus
// a sound decomposition bound over cross-cluster pairs, so
// Result.ComponentPrecision is always a valid guaranteed bound (≥ the
// unknown optimum, with Result.ComponentLowerBound holding the certified
// lower bound λ_B).
// Observer timing charges the Karp run of step 3 and all of step 4 to
// karp_amax.
func (s *Synchronizer) solveHierComponent(kit *compKit, g *graph.CSR, a *resultArena, ci int, comp []int, opts Options, pool *graph.Pool, t *phaseTimer) error {
	h := &kit.hier
	k := len(comp)
	L := opts.clusterSizeOrDefault()
	c0 := s.scc.CompOf[comp[0]]
	localOf := s.localIdx

	// ---- Partition: BFS graph growing in ascending seed order, then two
	// refinement sweeps moving each node to the cluster holding most of
	// its neighbors (deterministic; cluster sizes stay in [1, 2L)).
	clusterOf := grow(&h.clusterOf, k)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	forNeighbors := func(v int, fn func(int)) {
		p := comp[v]
		cols, _ := g.Row(p)
		for _, q := range cols {
			if s.scc.CompOf[q] == c0 {
				fn(localOf[q])
			}
		}
		cols, _ = s.csrT.Row(p)
		for _, q := range cols {
			if s.scc.CompOf[q] == c0 {
				fn(localOf[q])
			}
		}
	}
	queue := grow(&h.queue, k)[:0]
	nclusters := 0
	for seed := 0; seed < k; seed++ {
		if clusterOf[seed] != -1 {
			continue
		}
		c := nclusters
		nclusters++
		clusterOf[seed] = c
		size := 1
		queue = append(queue[:0], seed)
		for qi := 0; qi < len(queue) && size < L; qi++ {
			forNeighbors(queue[qi], func(u int) {
				if size < L && clusterOf[u] == -1 {
					clusterOf[u] = c
					size++
					queue = append(queue, u)
				}
			})
		}
	}
	if nclusters < 2 {
		return fmt.Errorf("core: internal: hierarchical partition of a %d-node component produced %d clusters", k, nclusters)
	}
	clSize := grow(&h.clSize, nclusters)
	clear(clSize)
	for _, c := range clusterOf {
		clSize[c]++
	}
	{
		cnt := grow(&h.cnt, nclusters)
		clear(cnt)
		touched := h.touched[:0]
		for sweep := 0; sweep < 2; sweep++ {
			for v := 0; v < k; v++ {
				cur := clusterOf[v]
				if clSize[cur] == 1 {
					continue // never empty a cluster
				}
				forNeighbors(v, func(u int) {
					c := clusterOf[u]
					if cnt[c] == 0 {
						touched = append(touched, c)
					}
					cnt[c]++
				})
				best, bestCnt := cur, cnt[cur]
				for _, c := range touched {
					if c != cur && clSize[c] >= 2*L {
						continue // respect the size cap
					}
					if cnt[c] > bestCnt || (cnt[c] == bestCnt && c < best) {
						best, bestCnt = c, cnt[c]
					}
				}
				if best != cur {
					clSize[cur]--
					clSize[best]++
					clusterOf[v] = best
				}
				for _, c := range touched {
					cnt[c] = 0
				}
				touched = touched[:0]
			}
		}
		h.touched = touched
	}

	// ---- Cluster layout: positions 0..k-1 list the component cluster by
	// cluster, cluster c at positions clPtr[c]..clPtr[c+1]-1 in ascending
	// node order; nodes maps a position to its processor and at a local
	// index to its position. Per-node vectors from here on are indexed by
	// position.
	clPtr := grow(&h.clPtr, nclusters+1)
	clear(clPtr)
	for _, c := range clusterOf {
		clPtr[c+1]++
	}
	for c := 0; c < nclusters; c++ {
		clPtr[c+1] += clPtr[c]
	}
	nodes := grow(&h.nodes, k)
	at := grow(&h.at, k)
	fill := append(queue[:0], clPtr[:nclusters]...) // the queue is free again
	for v, c := range clusterOf {
		at[v] = fill[c]
		nodes[fill[c]] = comp[v]
		fill[c]++
	}

	// ---- Boundary nodes: endpoints of cross-cluster edges. B lists their
	// local indices ascending; hIdx maps a position to its index in B, -1
	// off the boundary.
	isB := grow(&h.isB, k)
	clear(isB)
	for v := 0; v < k; v++ {
		cols, _ := g.Row(comp[v])
		for _, q := range cols {
			if s.scc.CompOf[q] != c0 {
				continue
			}
			u := localOf[q]
			if clusterOf[u] != clusterOf[v] {
				isB[at[v]] = true
				isB[at[u]] = true
			}
		}
	}
	hIdx := grow(&h.hIdx, k)
	B := grow(&h.B, k)[:0]
	for v := 0; v < k; v++ {
		hIdx[at[v]] = -1
		if isB[at[v]] {
			hIdx[at[v]] = len(B)
			B = append(B, v)
		}
	}
	nb := len(B)
	if nb == 0 {
		return fmt.Errorf("core: internal: hierarchical partition of a %d-node component found no boundary nodes", k)
	}

	// ---- Per-cluster exact closures, fanned across lanes.
	cl := grow(&h.cl, nclusters)
	if err := stripe(s, nclusters, kit, pool, true, clusterClosure{h, g}); err != nil {
		return err
	}

	// ---- Contracted boundary graph and its exact closure D, in kit.ms.
	H := &kit.ms
	H.Reset(nb)
	H.Fill(graph.Inf)
	H.FillDiag(0)
	for c := 0; c < nclusters; c++ {
		lo, hi := clPtr[c], clPtr[c+1]
		for i := lo; i < hi; i++ {
			if !isB[i] {
				continue
			}
			rowW := cl[c].Row(i - lo)
			rowH := H.Row(hIdx[i])
			for j := lo; j < hi; j++ {
				if j == i || !isB[j] {
					continue
				}
				if x := rowW[j-lo]; x < rowH[hIdx[j]] {
					rowH[hIdx[j]] = x
				}
			}
		}
	}
	for _, v := range B {
		cols, wgts := g.Row(comp[v])
		rowH := H.Row(hIdx[at[v]])
		for e, q := range cols {
			if s.scc.CompOf[q] != c0 {
				continue
			}
			u := localOf[q]
			if clusterOf[u] == clusterOf[v] {
				continue
			}
			if w := wgts[e]; w < rowH[hIdx[at[u]]] {
				rowH[hIdx[at[u]]] = w
			}
		}
	}
	if err := closeDense(H, pool); err != nil {
		return err
	}

	// ---- λ_B (certified lower bound) and the working precision λ.
	m := t.mark()
	lambdaB, _ := s.componentAMax(kit, H, s.ident(nb), pool)
	// A_max^c matters only where it exceeds λ_B, so a cluster certified
	// below λ_B keeps A_max^c = 0. The rest run Karp, which splits a
	// cluster closure that is not strongly connected (the intra subgraph
	// need not be, even inside an SCC) into its sub-components; the
	// certificate covers every sub-component at once, since no cycle
	// leaves its sub-component.
	grow(&h.aMax, nclusters)
	grow(&h.karp, nclusters)
	_ = stripe(s, nclusters, kit, pool, true, clusterAMax{h, lambdaB}) // cannot fail
	lambda := lambdaB
	for c, aM := range h.aMax {
		if aM > lambda {
			lambda = aM
		}
		if h.karp[c] {
			s.clusterKarp[ci]++
		}
	}
	t.addKarp(&m)

	// ---- Boundary corrections over weights λ − D, then their extension
	// into the cluster interiors from the boundary nodes pinned at them.
	hb := grow(&kit.dist, nb)
	var hbRev []float64
	if opts.Centered {
		hbRev = grow(&kit.distTo, nb)
	}
	if err := kit.correctionDistances(H, s.ident(nb), lambda, 0, hb, hbRev, pool); err != nil {
		return err
	}
	f := grow(&h.f, k)
	var fRev []float64
	if opts.Centered {
		fRev = grow(&h.fRev, k)
	}
	for i := range f {
		f[i] = graph.Inf
		if fRev != nil {
			fRev[i] = graph.Inf
		}
	}
	for x, v := range B {
		f[at[v]] = hb[x]
		if fRev != nil {
			fRev[at[v]] = hbRev[x]
		}
	}
	if err := stripe(s, nclusters, kit, pool, true, clusterExtension{h, lambda, opts.Centered}); err != nil {
		return err
	}

	// ---- Normalize to the component root and scatter.
	rootNode := comp[0]
	if opts.Root >= 0 && opts.Root < len(s.scc.CompOf) && s.scc.CompOf[opts.Root] == c0 {
		rootNode = opts.Root
	}
	shift := f[at[localOf[rootNode]]]
	for i, p := range nodes {
		a.corr[p] = f[i] - shift
	}

	// ---- Certificate λ̂ ≥ max over ordered pairs of m~s(p,q)+f(q)−f(p).
	// Intra-cluster pairs are exact under m~s^c (an upper bound on m~s);
	// a cross pair p ∈ c_i, q ∈ c_j satisfies m~s(p,q) ≤ m~s^i(p,b) +
	// D(b,b') + m~s^j(b',q) for EVERY boundary pair (b,b'), so
	// exit_i + γ_ij + enter_j with minimizing b, b' per endpoint bounds
	// it. All three factor maxima are computable in O(Σ kc² + |B|²).
	cb := grow(&h.cb, nclusters)
	maxExit := grow(&h.exit, nclusters)
	maxEnter := grow(&h.enter, nclusters)
	intraMax := 0.0
	for c := 0; c < nclusters; c++ {
		lo, kc := clPtr[c], clPtr[c+1]-clPtr[c]
		intra := 0.0
		exitM := math.Inf(-1)
		enterM := math.Inf(-1)
		for li := 0; li < kc; li++ {
			v := lo + li
			row := cl[c].Row(li)
			bestOut := math.Inf(1)
			for lj, x := range row {
				u := lo + lj
				if lj != li && !math.IsInf(x, 1) {
					if b := x + f[u] - f[v]; b > intra {
						intra = b
					}
				}
				if isB[u] && x+f[u] < bestOut {
					bestOut = x + f[u]
				}
			}
			if b := bestOut - f[v]; b > exitM {
				exitM = b
			}
			bestIn := math.Inf(1)
			for lj := 0; lj < kc; lj++ {
				u := lo + lj
				if !isB[u] {
					continue
				}
				if x := cl[c].At(lj, li); x-f[u] < bestIn {
					bestIn = x - f[u]
				}
			}
			if b := f[v] + bestIn; b > enterM {
				enterM = b
			}
		}
		cb[c] = intra
		maxExit[c] = exitM
		maxEnter[c] = enterM
		if intra > intraMax {
			intraMax = intra
		}
	}
	gamma := grow(&h.gamma, nclusters*nclusters)
	for i := range gamma {
		gamma[i] = math.Inf(-1)
	}
	for x, v := range B {
		rowD := H.Row(x)
		base := clusterOf[v] * nclusters
		fv := f[at[v]]
		for y, u := range B {
			if b := rowD[y] + f[at[u]] - fv; b > gamma[base+clusterOf[u]] {
				gamma[base+clusterOf[u]] = b
			}
		}
	}
	lambdaHat := intraMax
	for i := 0; i < nclusters; i++ {
		for j := 0; j < nclusters; j++ {
			gv := gamma[i*nclusters+j]
			if math.IsInf(gv, -1) {
				continue
			}
			if b := maxExit[i] + gv + maxEnter[j]; b > lambdaHat {
				lambdaHat = b
			}
		}
	}
	t.addCorr(&m)

	a.prec[ci] = lambdaHat
	a.lowerB[ci] = lambdaB
	if opts.Quality {
		s.hierQ[ci] = slices.Clone(cb) // cb is kit scratch the next component reuses
	}
	return nil
}

// hierScratch is the hierarchical solver's state for one component, kept
// on the caller's kit and reused across solves. The partition vectors are
// indexed by local index, the per-node vectors after the layout step by
// position.
type hierScratch struct {
	clusterOf, clSize, cnt, touched, queue []int // partition
	clPtr, nodes, at                       []int // layout
	isB                                    []bool
	hIdx, B                                []int
	cl                                     []graph.Dense // per-cluster closures m~s^c
	aMax                                   []float64
	karp                                   []bool // cluster c ran Karp
	f, fRev                                []float64
	cb, exit, enter, gamma                 []float64 // certificate
}

// clusterClosure closes cluster c's intra-cluster block of g into h.cl[c].
type clusterClosure struct {
	h *hierScratch
	g *graph.CSR
}

func (j clusterClosure) run(_ *Synchronizer, c int, kit *compKit, pool *graph.Pool) error {
	h := j.h
	return kit.closeBlock(&h.cl[c], j.g, h.nodes[h.clPtr[c]:h.clPtr[c+1]], pool)
}

// clusterAMax sets h.aMax[c] to cluster c's A_max^c, or to 0 when
// graph.MeanCycleBelow certifies it below lambdaB; h.karp[c] records
// whether Karp ran.
type clusterAMax struct {
	h       *hierScratch
	lambdaB float64
}

func (j clusterAMax) run(s *Synchronizer, c int, kit *compKit, pool *graph.Pool) error {
	W := &j.h.cl[c]
	certified := graph.MeanCycleBelow(W, j.lambdaB, grow(&kit.dist, W.N()))
	j.h.aMax[c], j.h.karp[c] = 0, !certified
	if !certified {
		j.h.aMax[c], _ = s.componentAMax(kit, W, s.ident(W.N()), pool)
	}
	return nil
}

// clusterExtension extends the boundary corrections pinned in h.f (and
// h.fRev when centered) over cluster c's interior and combines the two
// directions.
type clusterExtension struct {
	h        *hierScratch
	lambda   float64
	centered bool
}

func (j clusterExtension) run(s *Synchronizer, c int, kit *compKit, pool *graph.Pool) error {
	h := j.h
	lo, hi := h.clPtr[c], h.clPtr[c+1]
	f := h.f[lo:hi]
	var fRev []float64
	if j.centered {
		fRev = h.fRev[lo:hi]
	}
	if err := kit.correctionDistances(&h.cl[c], s.ident(hi-lo), j.lambda, -1, f, fRev, pool); err != nil {
		return err
	}
	for x := range f {
		if math.IsInf(f[x], 1) || (fRev != nil && math.IsInf(fRev[x], 1)) {
			return fmt.Errorf("core: internal: hierarchical extension left p%d unreachable from its cluster boundary", h.nodes[lo+x])
		}
		if fRev != nil {
			f[x] = (f[x] - fRev[x]) / 2
		}
	}
	return nil
}
