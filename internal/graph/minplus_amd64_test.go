package graph

import (
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

// minPlusSlice returns n values at offset off of a fresh buffer followed
// by a sentinel tail, so misaligned starts and out-of-range stores show.
func minPlusSlice(n, off int, pick []byte, salt int, rng *rand.Rand) []float64 {
	buf := make([]float64, off+n+4)
	for i := range buf {
		buf[i] = 12345.5
	}
	s := buf[off : off+n]
	for i := range s {
		var b byte
		if len(pick) > 0 {
			b = pick[(i*3+salt)%len(pick)]
		} else {
			b = byte(rng.Intn(256))
		}
		s[i] = minPlusValue(b, rng)
	}
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

// FuzzMinPlusKernels checks each AVX2 kernel against its Go loop bit for
// bit, on lengths 0-67 (every unroll remainder and scalar tail), starts at
// every offset mod 4 and values from minPlusValue; for the Bellman-Ford
// row also the parent vector and the changed result.
func FuzzMinPlusKernels(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("CPU without AVX2: the Go loops are the only kernels")
	}
	for n := 0; n < 68; n++ {
		f.Add(uint8(n), uint8(n%4), int64(n), []byte{byte(n), 1, 9, 0, 2, 6, 3, 4, 5, byte(7 * n)})
	}
	f.Add(uint8(33), uint8(1), int64(7), []byte{0, 1})
	// Sums of +0 and −0 that tie across the halves of Karp's reduction.
	f.Add(uint8(12), uint8(0), int64(-23), []byte{0, 1, 1, 0, 2, 0, 0})
	f.Add(uint8(17), uint8(3), int64(9), []byte{})
	f.Fuzz(func(t *testing.T, n8, off8 uint8, seed int64, pick []byte) {
		n, off := int(n8)%68, int(off8)%4
		rng := rand.New(rand.NewSource(seed))
		a := minPlusSlice(n, off, pick, 0, rng)
		b := minPlusSlice(n, (off+1)%4, pick, 1, rng)
		s := minPlusValue(byte(seed), rng)

		if g, w := karpMinSumAVX2(a, b), karpMinSumGo(a, b); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("karpMinSum n=%d off=%d: got %v want %v", n, off, g, w)
		}

		want := append([]float64(nil), a...)
		fwRowMinAVX2(a, b, s)
		fwRowMinGo(want, b, s)
		if !sameBits(a, want) || !tailIntact(a) {
			t.Fatalf("fwRowMin n=%d off=%d dik=%v:\n got %v\nwant %v", n, off, s, a, want)
		}

		distG := minPlusSlice(n, off, pick, 2, rng)
		distW := append([]float64(nil), distG...)
		parG := make([]int, n, n+4)
		for i := range parG {
			parG[i] = rng.Intn(5) - 1
		}
		parW := append([]int(nil), parG...)
		u := rng.Intn(1000)
		cg := bfRelaxRowAVX2(distG, parG, b, s, u)
		cw := bfRelaxRowGo(distW, parW, b, s, u)
		if cg != cw || !sameBits(distG, distW) || !tailIntact(distG) {
			t.Fatalf("bfRelaxRow n=%d off=%d du=%v: changed %v/%v\n got %v\nwant %v", n, off, s, cg, cw, distG, distW)
		}
		for i := range parG {
			if parG[i] != parW[i] {
				t.Fatalf("bfRelaxRow n=%d parent[%d] = %d, want %d", n, i, parG[i], parW[i])
			}
		}
		for _, p := range parG[n:cap(parG)] {
			if p != 0 {
				t.Fatalf("bfRelaxRow n=%d wrote past parent", n)
			}
		}
	})
}

// TestDenseKernelsVectorMatchGo runs each dense kernel on the Go loops and
// on the AVX2 kernels and requires identical bits: Floyd-Warshall
// matrices, Karp means and cycles, Bellman-Ford distances and parents.
func TestDenseKernelsVectorMatchGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU without AVX2: the Go loops are the only kernels")
	}
	defer SetVectorKernels(SetVectorKernels(true))
	rng := rand.New(rand.NewSource(61))
	var karp KarpScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(70)
		if trial == 0 {
			n = 128
		}
		w := randomDense(rng, n, 0.3, -0.2, 1.0)
		type out struct {
			fw        []float64
			fwErr     error
			mc        MeanCycle
			ok        bool
			dist, bfm []float64
			par, bfp  []int
			bfErr     error
			bfmErr    error
		}
		run := func(vector bool) out {
			useAVX2 = vector
			var o out
			d := mustDense(t, w)
			o.fwErr = FloydWarshallDense(d, nil)
			o.fw = append([]float64(nil), d.Data()...)
			if o.fwErr == nil {
				mc, ok := MaxMeanCycleDense(d, identity(n), &karp, nil)
				o.mc = MeanCycle{Mean: mc.Mean, Cycle: append([]int(nil), mc.Cycle...)}
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
		state := rng.Int63()
		rng.Seed(state)
		want := run(false)
		rng.Seed(state)
		got := run(true)
		if got.fwErr != want.fwErr || !sameBits(got.fw, want.fw) {
			t.Fatalf("n=%d: FloydWarshallDense differs (err %v / %v)", n, got.fwErr, want.fwErr)
		}
		if got.ok != want.ok || math.Float64bits(got.mc.Mean) != math.Float64bits(want.mc.Mean) ||
			!slices.Equal(got.mc.Cycle, want.mc.Cycle) {
			t.Fatalf("n=%d: MaxMeanCycleDense %v %v, Go loops %v %v", n, got.mc, got.ok, want.mc, want.ok)
		}
		if got.bfErr != want.bfErr || !sameBits(got.dist, want.dist) || !slices.Equal(got.par, want.par) {
			t.Fatalf("n=%d: BellmanFordDense differs (err %v / %v)", n, got.bfErr, want.bfErr)
		}
		if got.bfmErr != want.bfmErr || !sameBits(got.bfm, want.bfm) || !slices.Equal(got.bfp, want.bfp) {
			t.Fatalf("n=%d: BellmanFordDenseFrom differs (err %v / %v)", n, got.bfmErr, want.bfmErr)
		}
	}
}
