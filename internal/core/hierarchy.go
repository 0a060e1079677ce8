package core

import (
	"errors"
	"fmt"
	"math"

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
//  5. synchronize the boundary (Bellman-Ford over λ − D), extend into
//     cluster interiors by multi-source Bellman-Ford over λ − m~s^c with
//     the boundary corrections pinned, and compose.
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
// unknown optimum, with s.lowerB holding the certified lower bound λ_B).
// Observer timing charges the Karp run of step 3 and all of step 4 to
// karp_amax.
func (s *Synchronizer) solveHierComponent(g *graph.CSR, a *resultArena, ci int, comp []int, opts Options, pool *graph.Pool, t *phaseTimer) error {
	k := len(comp)
	L := opts.clusterSizeOrDefault()
	c0 := s.scc.CompOf[comp[0]]
	localOf := s.localIdx

	// ---- Partition: BFS graph growing in ascending seed order, then two
	// refinement sweeps moving each node to the cluster holding most of
	// its neighbors (deterministic; cluster sizes stay in [1, 2L)).
	clusterOf := make([]int, k)
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
	queue := make([]int, 0, k)
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
	clSize := make([]int, nclusters)
	for _, c := range clusterOf {
		clSize[c]++
	}
	{
		cnt := make([]int, nclusters)
		touched := make([]int, 0, 16)
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
	}

	// ---- Cluster layout: members grouped per cluster, ascending within.
	clPtr := make([]int, nclusters+1)
	for _, c := range clusterOf {
		clPtr[c+1]++
	}
	maxKc := 0
	for c := 0; c < nclusters; c++ {
		if clPtr[c+1] > maxKc {
			maxKc = clPtr[c+1]
		}
		clPtr[c+1] += clPtr[c]
	}
	clNodes := make([]int, k)
	clIdx := make([]int, k)
	fill := append([]int(nil), clPtr[:nclusters]...)
	for v := 0; v < k; v++ {
		c := clusterOf[v]
		clIdx[v] = fill[c] - clPtr[c]
		clNodes[fill[c]] = v
		fill[c]++
	}

	// ---- Boundary nodes: endpoints of cross-cluster edges.
	isB := make([]bool, k)
	for v := 0; v < k; v++ {
		cols, _ := g.Row(comp[v])
		for _, q := range cols {
			if s.scc.CompOf[q] != c0 {
				continue
			}
			u := localOf[q]
			if clusterOf[u] != clusterOf[v] {
				isB[v] = true
				isB[u] = true
			}
		}
	}
	hIdx := make([]int, k)
	B := make([]int, 0, k)
	for v := 0; v < k; v++ {
		hIdx[v] = -1
		if isB[v] {
			hIdx[v] = len(B)
			B = append(B, v)
		}
	}
	nb := len(B)
	if nb == 0 {
		return fmt.Errorf("core: internal: hierarchical partition of a %d-node component found no boundary nodes", k)
	}
	ident := s.ident(max(maxKc, nb))

	// ---- Per-cluster exact closures, fanned across lanes.
	msI := make([]*graph.Dense, nclusters)
	clErr := make([]error, nclusters)
	closeCluster := func(c, _ int) error {
		members := clNodes[clPtr[c]:clPtr[c+1]]
		kc := len(members)
		W := graph.NewDense(kc)
		W.Fill(graph.Inf)
		W.FillDiag(0)
		for li, v := range members {
			row := W.Row(li)
			cols, wgts := g.Row(comp[v])
			for e, q := range cols {
				if s.scc.CompOf[q] != c0 {
					continue
				}
				u := localOf[q]
				if clusterOf[u] == c {
					row[clIdx[u]] = wgts[e]
				}
			}
		}
		if err := graph.FloydWarshallDense(W, nil); err != nil {
			if errors.Is(err, graph.ErrNegativeCycle) {
				return fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return err
		}
		msI[c] = W
		return nil
	}
	lanes := 1
	if pool != nil {
		lanes = pool.Lanes()
		if lanes > nclusters {
			lanes = nclusters
		}
	}
	// forClusters runs fn on every cluster, striped across the lanes, and
	// returns the lowest-index error.
	forClusters := func(fn func(c, part int) error) error {
		if lanes > 1 {
			pool.Run(lanes, func(part int) {
				for c := part; c < nclusters; c += lanes {
					clErr[c] = fn(c, part)
				}
			})
		} else {
			for c := 0; c < nclusters; c++ {
				clErr[c] = fn(c, 0)
			}
		}
		for _, e := range clErr {
			if e != nil {
				return e
			}
		}
		return nil
	}
	if err := forClusters(closeCluster); err != nil {
		return err
	}

	// ---- Contracted boundary graph and its exact closure D.
	H := graph.NewDense(nb)
	H.Fill(graph.Inf)
	H.FillDiag(0)
	for c := 0; c < nclusters; c++ {
		members := clNodes[clPtr[c]:clPtr[c+1]]
		for _, v := range members {
			if !isB[v] {
				continue
			}
			rowW := msI[c].Row(clIdx[v])
			rowH := H.Row(hIdx[v])
			for _, u := range members {
				if u == v || !isB[u] {
					continue
				}
				if x := rowW[clIdx[u]]; x < rowH[hIdx[u]] {
					rowH[hIdx[u]] = x
				}
			}
		}
	}
	for _, v := range B {
		cols, wgts := g.Row(comp[v])
		rowH := H.Row(hIdx[v])
		for e, q := range cols {
			if s.scc.CompOf[q] != c0 {
				continue
			}
			u := localOf[q]
			if clusterOf[u] == clusterOf[v] {
				continue
			}
			if w := wgts[e]; w < rowH[hIdx[u]] {
				rowH[hIdx[u]] = w
			}
		}
	}
	if err := graph.FloydWarshallDense(H, pool); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			return fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return err
	}

	// ---- λ_B (certified lower bound) and the working precision λ.
	m := t.mark()
	lambdaB := 0.0
	{
		var karp graph.KarpScratch
		if mc, ok := graph.MaxMeanCycleDense(H, ident[:nb], &karp, pool); ok {
			lambdaB = mc.Mean
		}
	}
	// A_max^c matters only where it exceeds λ_B, so a cluster certified
	// below λ_B keeps A_max^c = 0. The rest run Karp, which splits a
	// cluster closure that is not strongly connected (the intra subgraph
	// need not be, even inside an SCC) into its sub-components; the
	// certificate covers every sub-component at once, since no cycle
	// leaves its sub-component.
	aMaxI := make([]float64, nclusters)
	karpRuns := make([]int, lanes)
	dists := make([][]float64, lanes)
	karps := make([]graph.KarpScratch, lanes)
	for part := range dists {
		dists[part] = make([]float64, maxKc)
	}
	clusterAMax := func(c, part int) error {
		W := msI[c]
		if graph.MeanCycleBelow(W, lambdaB, dists[part]) {
			return nil
		}
		if mc, ok := graph.MaxMeanCycleDense(W, ident[:W.N()], &karps[part], nil); ok {
			aMaxI[c] = mc.Mean
		}
		karpRuns[part]++
		return nil
	}
	_ = forClusters(clusterAMax) // clusterAMax cannot fail
	for _, r := range karpRuns {
		s.clusterKarp[ci] += r
	}
	lambdaUse := lambdaB
	for _, aM := range aMaxI {
		if aM > lambdaUse {
			lambdaUse = aM
		}
	}
	t.addKarp(&m)

	// ---- Boundary corrections h over weights λ − D.
	bfBoundary := func(transposed bool, dist []float64, parent []int) error {
		Wh := graph.NewDense(nb)
		for x := 0; x < nb; x++ {
			row := Wh.Row(x)
			if transposed {
				for y := 0; y < nb; y++ {
					row[y] = lambdaUse - H.At(y, x)
				}
			} else {
				rowD := H.Row(x)
				for y := 0; y < nb; y++ {
					row[y] = lambdaUse - rowD[y]
				}
			}
			row[x] = graph.Inf
		}
		return s.rootDistancesDense(Wh, 0, dist, parent)
	}
	h := make([]float64, nb)
	par := make([]int, nb)
	if err := bfBoundary(false, h, par); err != nil {
		return err
	}
	var hRev []float64
	if opts.Centered {
		hRev = make([]float64, nb)
		if err := bfBoundary(true, hRev, par); err != nil {
			return err
		}
	}

	// ---- Extend into cluster interiors: multi-source Bellman-Ford over
	// λ − m~s^c with the boundary corrections pinned, per cluster.
	f := make([]float64, k)
	var fRev []float64
	if opts.Centered {
		fRev = make([]float64, k)
	}
	extendCluster := func(c int, transposed bool, hb, out []float64) error {
		members := clNodes[clPtr[c]:clPtr[c+1]]
		kc := len(members)
		Wc := graph.NewDense(kc)
		for x := 0; x < kc; x++ {
			row := Wc.Row(x)
			for y := 0; y < kc; y++ {
				var w float64
				if transposed {
					w = msI[c].At(y, x)
				} else {
					w = msI[c].At(x, y)
				}
				if math.IsInf(w, 1) {
					row[y] = graph.Inf
				} else {
					row[y] = lambdaUse - w
				}
			}
			row[x] = graph.Inf
		}
		dist := make([]float64, kc)
		parc := make([]int, kc)
		for i := range dist {
			dist[i] = graph.Inf
			parc[i] = -1
		}
		for li, v := range members {
			if isB[v] {
				dist[li] = hb[hIdx[v]]
			}
		}
		if err := graph.BellmanFordDenseFrom(Wc, dist, parc); err != nil {
			if errors.Is(err, graph.ErrNegativeCycle) {
				return fmt.Errorf("%w: correction weights have a negative cycle", ErrInfeasible)
			}
			return err
		}
		for li, v := range members {
			if math.IsInf(dist[li], 1) {
				return fmt.Errorf("core: internal: hierarchical extension left p%d unreachable from its cluster boundary", comp[v])
			}
			out[v] = dist[li]
		}
		return nil
	}
	runExtend := func(transposed bool, hb, out []float64) error {
		return forClusters(func(c, _ int) error { return extendCluster(c, transposed, hb, out) })
	}
	if err := runExtend(false, h, f); err != nil {
		return err
	}
	if opts.Centered {
		if err := runExtend(true, hRev, fRev); err != nil {
			return err
		}
		for v := range f {
			f[v] = (f[v] - fRev[v]) / 2
		}
	}

	// ---- Normalize to the component root and scatter.
	rootNode := comp[0]
	if opts.Root >= 0 && opts.Root < len(s.scc.CompOf) && s.scc.CompOf[opts.Root] == c0 {
		rootNode = opts.Root
	}
	shift := f[localOf[rootNode]]
	for v := 0; v < k; v++ {
		a.corr[comp[v]] = f[v] - shift
	}

	// ---- Certificate λ̂ ≥ max over ordered pairs of m~s(p,q)+f(q)−f(p).
	// Intra-cluster pairs are exact under m~s^c (an upper bound on m~s);
	// a cross pair p ∈ c_i, q ∈ c_j satisfies m~s(p,q) ≤ m~s^i(p,b) +
	// D(b,b') + m~s^j(b',q) for EVERY boundary pair (b,b'), so
	// exit_i + γ_ij + enter_j with minimizing b, b' per endpoint bounds
	// it. All three factor maxima are computable in O(Σ kc² + |B|²).
	cb := make([]float64, nclusters)
	maxExit := make([]float64, nclusters)
	maxEnter := make([]float64, nclusters)
	intraMax := 0.0
	for c := 0; c < nclusters; c++ {
		members := clNodes[clPtr[c]:clPtr[c+1]]
		intra := 0.0
		exitM := math.Inf(-1)
		enterM := math.Inf(-1)
		for li, v := range members {
			row := msI[c].Row(li)
			bestOut := math.Inf(1)
			for lj, u := range members {
				x := row[lj]
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
			for lj, u := range members {
				if !isB[u] {
					continue
				}
				if x := msI[c].At(lj, li); x-f[u] < bestIn {
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
	gamma := make([]float64, nclusters*nclusters)
	for i := range gamma {
		gamma[i] = math.Inf(-1)
	}
	for x, v := range B {
		rowD := H.Row(x)
		base := clusterOf[v] * nclusters
		for y, u := range B {
			if b := rowD[y] + f[u] - f[v]; b > gamma[base+clusterOf[u]] {
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
	s.lowerB[ci] = lambdaB
	if opts.Quality {
		s.hierQ[ci] = cb
	}
	return nil
}
