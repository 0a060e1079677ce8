package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// minPlusValue maps one fuzz byte to a kernel input: the values where a
// vector min or add could part from Go's scalar code (signed zeros, +Inf,
// subnormals, sums near the overflow range) and ordinary normals.
func minPlusValue(b byte, rng *rand.Rand) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return Inf
	case 3:
		return float64(int(b>>3)-16) * math.SmallestNonzeroFloat64
	case 4:
		return 1e300
	case 5:
		return -1e300
	default:
		return rng.NormFloat64() * float64(int(b>>3)+1)
	}
}

// minPlusSlice returns n values from minPlusValue, placed at offset off
// of a fresh buffer by placed.
func minPlusSlice(n, off int, pick []byte, salt int, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		var b byte
		if len(pick) > 0 {
			b = pick[(i*3+salt)%len(pick)]
		} else {
			b = byte(rng.Intn(256))
		}
		s[i] = minPlusValue(b, rng)
	}
	return placed(s, off)
}

// placed copies vals to offset off of a fresh buffer followed by four
// sentinels, so misaligned starts and out-of-range stores show.
func placed(vals []float64, off int) []float64 {
	buf := make([]float64, off+len(vals)+4)
	for i := range buf {
		buf[i] = 12345.5
	}
	s := buf[off : off+len(vals)]
	copy(s, vals)
	return s
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tailIntact reports whether the four sentinels after s are untouched.
func tailIntact(s []float64) bool {
	for _, x := range s[len(s):cap(s)] {
		if x != 12345.5 {
			return false
		}
	}
	return true
}

// checkMinPlusKernels runs each kernel at each of levels against its Go
// loop bit for bit (karpMinSum4 on four rows laid back to back), on
// inputs of length n at offset off drawn by
// minPlusValue from pick (or from seed when pick is empty); for the
// Bellman-Ford row also the parent vector and the changed result.
func checkMinPlusKernels(t testing.TB, levels []string, n, off int, seed int64, pick []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := minPlusSlice(n, off, pick, 0, rng)
	b := minPlusSlice(n, (off+1)%4, pick, 1, rng)
	s := minPlusValue(byte(seed), rng)
	dist := minPlusSlice(n, off, pick, 2, rng)
	par := make([]int, n)
	for i := range par {
		par[i] = rng.Intn(5) - 1
	}
	u := rng.Intn(1000)
	rows := placed(slices.Concat(b, dist, a, minPlusSlice(n, 0, pick, 3, rng)), (off+2)%4)

	wantKarp := karpMinSumGo(a, b)
	var wantKarp4 [4]float64
	for i := range wantKarp4 {
		wantKarp4[i] = karpMinSumGo(a, rows[i*n:(i+1)*n])
	}
	wantFW := slices.Clone(a)
	fwRowMinGo(wantFW, b, s)
	wantDist, wantPar := slices.Clone(dist), slices.Clone(par)
	wantChanged := bfRelaxRowGo(wantDist, wantPar, b, s, u)

	for _, level := range levels {
		AtKernelLevel(level, func() {
			if g := karpMinSum(a, b); math.Float64bits(g) != math.Float64bits(wantKarp) {
				t.Fatalf("%s karpMinSum n=%d off=%d: got %v want %v", level, n, off, g, wantKarp)
			}

			var k4 [4]float64
			if karpMinSum4(a, rows, &k4); !sameBits(k4[:], wantKarp4[:]) {
				t.Fatalf("%s karpMinSum4 n=%d off=%d: got %v want %v", level, n, off, k4, wantKarp4)
			}

			row := placed(a, off)
			fwRowMin(row, b, s)
			if !sameBits(row, wantFW) || !tailIntact(row) {
				t.Fatalf("%s fwRowMin n=%d off=%d dik=%v:\n got %v\nwant %v", level, n, off, s, row, wantFW)
			}

			d := placed(dist, off)
			p := make([]int, n, n+4)
			copy(p, par)
			changed := bfRelaxRow(d, p, b, s, u)
			if changed != wantChanged || !sameBits(d, wantDist) || !tailIntact(d) {
				t.Fatalf("%s bfRelaxRow n=%d off=%d du=%v: changed %v/%v\n got %v\nwant %v", level, n, off, s, changed, wantChanged, d, wantDist)
			}
			if !slices.Equal(p, wantPar) {
				t.Fatalf("%s bfRelaxRow n=%d: parent %v, want %v", level, n, p, wantPar)
			}
			for _, x := range p[n:cap(p)] {
				if x != 0 {
					t.Fatalf("%s bfRelaxRow n=%d wrote past parent", level, n)
				}
			}
		})
	}
}

// FuzzMinPlusKernels checks each vector kernel body against its Go loop
// (checkMinPlusKernels) on lengths 0-70, which run every unroll remainder
// and masked or scalar tail, starts at every offset mod 4 and values from
// minPlusValue; it logs the vector levels the CPU lacks.
func FuzzMinPlusKernels(f *testing.F) {
	levels := vectorLevels(f)
	if len(levels) == 0 {
		f.Skip("CPU without AVX2: the Go loops are the only kernels")
	}
	for n := 0; n < 71; n++ {
		f.Add(uint8(n), uint8(n%4), int64(n), []byte{byte(n), 1, 9, 0, 2, 6, 3, 4, 5, byte(7 * n)})
	}
	f.Add(uint8(33), uint8(1), int64(7), []byte{0, 1})
	// Sums of +0 and −0 that tie across the halves of Karp's reduction.
	f.Add(uint8(12), uint8(0), int64(-23), []byte{0, 1, 1, 0, 2, 0, 0})
	f.Add(uint8(17), uint8(3), int64(9), []byte{})
	f.Fuzz(func(t *testing.T, n8, off8 uint8, seed int64, pick []byte) {
		checkMinPlusKernels(t, levels, int(n8)%71, int(off8)%4, seed, pick)
	})
}

// TestMinPlusKernelLengths runs checkMinPlusKernels on every length 0-70
// at every offset 0-3, so each zmm, ymm, masked and scalar tail of every
// body runs on every alignment.
func TestMinPlusKernelLengths(t *testing.T) {
	ForVectorLevels(t, func(t *testing.T, level string) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				checkMinPlusKernels(t, []string{level}, n, off, int64(4*n+off), nil)
			}
		}
	})
}

// TestMinPlusTies pins the pairs where a vector min could part from Go's:
// each case is min(x, p+q), computed by fwRowMin (row x, dik p, tile q),
// by karpMinSum and karpMinSum4 (x and p+q at two positions of a longer
// +Inf row, each pair of positions a row of these lengths offers) and,
// for the strict
// comparison, by bfRelaxRow (dist x, du p, row q). VRANGEPD $0 would take
// the sign from x and fail the -3 case (it gives +3).
func TestMinPlusTies(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		name    string
		x, p, q float64
		want    float64
	}{
		{"+0 vs -0", 0, negZero, negZero, negZero},
		{"-0 vs +0", negZero, 0, negZero, negZero},
		{"-0 vs cancelled 1e300", negZero, 1e300, -1e300, negZero},
		{"cancelled 1e300 vs +0", 0, -1e300, 1e300, 0},
		{"-3 vs +Inf", -3, negZero, Inf, -3},
		{"+Inf vs -3", Inf, -3, negZero, -3},
		{"+Inf vs +Inf", Inf, 1e300, Inf, Inf},
		{"1e300 vs 2e300", 1e300, 1e300, 1e300, 1e300},
		{"-1e300 vs -2e300", -1e300, -1e300, -1e300, -2e300},
		{"subnormal vs -subnormal", tiny, negZero, -tiny, -tiny},
		{"-subnormal vs subnormal sum", -tiny, 4 * tiny, -2 * tiny, -tiny},
		{"equal normals", 2, 1, 1, 2},
	}
	lengths := []int{1, 2, 5, 8, 9, 16, 19, 32, 40, 67}
	ForVectorLevels(t, func(t *testing.T, level string) {
		for _, tc := range cases {
			if g := min(tc.x, tc.p+tc.q); math.Float64bits(g) != math.Float64bits(tc.want) {
				t.Fatalf("%s: Go min gives %v, table says %v", tc.name, g, tc.want)
			}
			AtKernelLevel(level, func() {
				row := []float64{tc.x}
				fwRowMin(row, []float64{tc.q}, tc.p)
				if math.Float64bits(row[0]) != math.Float64bits(tc.want) {
					t.Fatalf("%s fwRowMin: got %v want %v", tc.name, row[0], tc.want)
				}
				for _, n := range lengths {
					prev, sum := make([]float64, n), make([]float64, n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if i == j && n > 1 {
								continue
							}
							for k := range prev {
								prev[k], sum[k] = Inf, negZero
							}
							prev[j], sum[j] = tc.p, tc.q
							if i != j {
								prev[i] = tc.x
							}
							want := karpMinSumGo(prev, sum)
							if g := karpMinSum(prev, sum); math.Float64bits(g) != math.Float64bits(want) {
								t.Fatalf("%s karpMinSum n=%d x at %d, p+q at %d: got %v want %v", tc.name, n, i, j, g, want)
							}
							// The same pair in one of four rows of +Inf sums.
							r := (i + j) % 4
							rows := make([]float64, 4*n)
							for k := range rows {
								rows[k] = Inf
							}
							copy(rows[r*n:], sum)
							var k4 [4]float64
							if karpMinSum4(prev, rows, &k4); math.Float64bits(k4[r]) != math.Float64bits(want) {
								t.Fatalf("%s karpMinSum4 n=%d row %d x at %d, p+q at %d: got %v want %v", tc.name, n, r, i, j, k4[r], want)
							}
						}
					}
				}
				dist, par := []float64{tc.x}, []int{-1}
				wantDist, wantPar := slices.Clone(dist), slices.Clone(par)
				wantChanged := bfRelaxRowGo(wantDist, wantPar, []float64{tc.q}, tc.p, 7)
				if changed := bfRelaxRow(dist, par, []float64{tc.q}, tc.p, 7); changed != wantChanged ||
					!sameBits(dist, wantDist) || par[0] != wantPar[0] {
					t.Fatalf("%s bfRelaxRow: dist %v parent %v changed %v, want %v %v %v", tc.name, dist, par, changed, wantDist, wantPar, wantChanged)
				}
			})
		}
	})
}

// denseOutputs is what each dense kernel returns on one matrix:
// Floyd-Warshall matrices, Karp means and cycles (on the closure and,
// through the SCC split, on the raw matrix), Bellman-Ford distances and
// parents.
type denseOutputs struct {
	fw        []float64
	fwErr     error
	mc, raw   MeanCycle
	ok, rawOK bool
	dist, bfm []float64
	par, bfp  []int
	bfErr     error
	bfmErr    error
}

// runDenseKernels computes denseOutputs for w at the current kernel
// level, drawing the Bellman-Ford sources from a generator seeded with
// seed.
func runDenseKernels(t testing.TB, w [][]float64, seed int64, karp *KarpScratch) denseOutputs {
	n := len(w)
	rng := rand.New(rand.NewSource(seed))
	var o denseOutputs
	d := mustDense(t, w)
	mc, ok := MaxMeanCycleDense(d, identity(n), karp, nil)
	o.raw = MeanCycle{Mean: mc.Mean, Cycle: slices.Clone(mc.Cycle)}
	o.rawOK = ok
	o.fwErr = FloydWarshallDense(d, nil)
	o.fw = slices.Clone(d.Data())
	if o.fwErr == nil {
		mc, ok := MaxMeanCycleDense(d, identity(n), karp, nil)
		o.mc = MeanCycle{Mean: mc.Mean, Cycle: slices.Clone(mc.Cycle)}
		o.ok = ok
	}
	adj := mustDense(t, w)
	adj.FillDiag(Inf)
	o.dist, o.par = make([]float64, n), make([]int, n)
	o.bfErr = BellmanFordDense(adj, rng.Intn(n), o.dist, o.par)
	o.bfm, o.bfp = make([]float64, n), make([]int, n)
	for v := range o.bfm {
		o.bfm[v], o.bfp[v] = Inf, -1
		if rng.Intn(3) == 0 {
			o.bfm[v] = rng.NormFloat64()
		}
	}
	o.bfmErr = BellmanFordDenseFrom(adj, o.bfm, o.bfp)
	return o
}

// diff names the first kernel whose output differs between o and want,
// or returns "".
func (o denseOutputs) diff(want denseOutputs) string {
	sameMean := func(a, b MeanCycle) bool {
		return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) && slices.Equal(a.Cycle, b.Cycle)
	}
	switch {
	case o.fwErr != want.fwErr || !sameBits(o.fw, want.fw):
		return fmt.Sprintf("FloydWarshallDense differs (err %v / %v)", o.fwErr, want.fwErr)
	case o.ok != want.ok || !sameMean(o.mc, want.mc):
		return fmt.Sprintf("MaxMeanCycleDense %v %v, Go loops %v %v", o.mc, o.ok, want.mc, want.ok)
	case o.rawOK != want.rawOK || !sameMean(o.raw, want.raw):
		return fmt.Sprintf("MaxMeanCycleDense on the raw matrix %v %v, Go loops %v %v", o.raw, o.rawOK, want.raw, want.rawOK)
	case o.bfErr != want.bfErr || !sameBits(o.dist, want.dist) || !slices.Equal(o.par, want.par):
		return fmt.Sprintf("BellmanFordDense differs (err %v / %v)", o.bfErr, want.bfErr)
	case o.bfmErr != want.bfmErr || !sameBits(o.bfm, want.bfm) || !slices.Equal(o.bfp, want.bfp):
		return fmt.Sprintf("BellmanFordDenseFrom differs (err %v / %v)", o.bfmErr, want.bfmErr)
	}
	return ""
}

// TestDenseKernelsVectorMatchGo runs each dense kernel on the Go loops and
// at each vector level and requires identical bits in every output of
// runDenseKernels.
func TestDenseKernelsVectorMatchGo(t *testing.T) {
	ForVectorLevels(t, func(t *testing.T, level string) {
		rng := rand.New(rand.NewSource(61))
		var karp KarpScratch
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(70)
			if trial == 0 {
				n = 128
			}
			w := randomDense(rng, n, 0.3, -0.2, 1.0)
			if trial%4 == 1 {
				// No edge from the upper half back to the lower: the matrix
				// and its closure split into several components.
				for i := n / 2; i < n; i++ {
					for j := 0; j < n/2; j++ {
						w[i][j] = Inf
					}
				}
			}
			seed := rng.Int63()
			var want, got denseOutputs
			AtKernelLevel("go", func() { want = runDenseKernels(t, w, seed, &karp) })
			AtKernelLevel(level, func() { got = runDenseKernels(t, w, seed, &karp) })
			if d := got.diff(want); d != "" {
				t.Fatalf("n=%d: %s", n, d)
			}
		}
	})
}
