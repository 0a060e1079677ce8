package graph

import "math"

// Cache-blocked, lane-parallel Floyd-Warshall on the flat Dense layout.
//
// For a fixed pivot k, the relaxation d[i][j] = min(d[i][j], d[i][k] +
// d[k][j]) touches row i and row k only: row k is invariant during pivot k
// (d[k][j] cannot improve via d[k][k] = 0), so rows are independent and can
// be processed by concurrent lanes, in tiles, or in any order without
// changing a single bit of the result. The kernels below exploit exactly
// that freedom — the per-element sequence of candidate sums over k is
// identical to the classic triple loop, so serial, tiled, and parallel
// paths all produce bit-identical matrices.

// fwTile is the column-tile width. At 2048 columns a pivot-row tile is
// 16 KiB — half a typical L1d — so it stays resident while the row tiles
// of the block stream through. Matrices with n <= fwTile (the common case
// here) see a single tile and zero overhead.
const fwTile = 2048

// fwParallelMinRows is the minimum number of rows per lane worth the
// barrier traffic; below it the kernel runs inline.
const fwParallelMinRows = 16

// FloydWarshallDense runs Floyd-Warshall in place on d (entries are direct
// edge weights, +Inf absent, diagonal 0) using up to pool.Lanes() lanes.
// On return d holds all-pairs shortest-path distances. It returns
// ErrNegativeCycle when a diagonal entry falls below -negCycleTol, and snaps
// smaller negative diagonal noise to 0 so downstream code sees a clean
// metric. Results are bit-identical to the classic triple loop for every
// pool size.
func FloydWarshallDense(d *Dense, pool *Pool) error {
	n := d.n
	lanes := laneCount(pool, n, fwParallelMinRows)
	if lanes <= 1 {
		for k := 0; k < n; k++ {
			fwRelaxRows(d, k, 0, n)
		}
	} else {
		bar := NewBarrier(lanes)
		pool.Run(lanes, func(part int) {
			lo, hi := shardRange(n, lanes, part)
			for k := 0; k < n; k++ {
				fwRelaxRows(d, k, lo, hi)
				bar.Wait()
			}
		})
	}
	for i := 0; i < n; i++ {
		dii := d.data[i*n+i]
		if dii < -negCycleTol(dii) {
			return ErrNegativeCycle
		}
		if dii < 0 {
			d.data[i*n+i] = 0
		}
	}
	return nil
}

// fwRelaxRows applies pivot k to rows [lo, hi), tiling the column loop.
// The inner loop is branchless: every element stores min(d[i][j], d[i][k] +
// d[k][j]), which the compiler lowers to a predictable MIN sequence —
// no data-dependent branch to mispredict — and dik + (+Inf) = +Inf never
// beats a stored distance, so absent pivot-row entries need no explicit
// test. Inputs are NaN-free by validation, so min agrees exactly with the
// classic compare-and-store.
func fwRelaxRows(d *Dense, k, lo, hi int) {
	n := d.n
	dk := d.data[k*n : k*n+n]
	for jb := 0; jb < n; jb += fwTile {
		je := jb + fwTile
		if je > n {
			je = n
		}
		tile := dk[jb:je]
		for i := lo; i < hi; i++ {
			// Row k is invariant during its own pivot (d[k][k] = 0), and the
			// branchless store below would otherwise WRITE the unchanged
			// values back while other lanes read them — skip it.
			if i == k {
				continue
			}
			di := d.data[i*n : i*n+n]
			dik := di[k]
			if math.IsInf(dik, 1) {
				continue
			}
			row := di[jb:je]
			for j, dkj := range tile {
				row[j] = min(row[j], dik+dkj)
			}
		}
	}
}

// negCycleTol is the relative tolerance below which a negative diagonal
// entry is floating-point dust rather than a negative cycle.
func negCycleTol(x float64) float64 {
	return 1e-9 * (1 + math.Abs(x))
}
