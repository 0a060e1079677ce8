package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(n int, p float64) *Dense {
	rng := rand.New(rand.NewSource(7))
	return RandomStronglyConnected(rng, n, p, 0.1, 1.0)
}

// benchSizes and benchLanes span the sizes and lane counts the lane
// thresholds (fwMinLaneWork, karpMinLaneWork) are measured on.
var (
	benchSizes = []int{16, 64, 128, 256, 384, 512, 640, 1024}
	benchLanes = []int{1, 2}
)

func BenchmarkFloydWarshallDense(b *testing.B) {
	for _, n := range benchSizes {
		src := benchGraph(n, 0.2)
		for _, lanes := range benchLanes {
			b.Run(fmt.Sprintf("n=%d/lanes=%d", n, lanes), func(b *testing.B) {
				pool := NewPool(lanes)
				defer pool.Close()
				d := NewDense(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.CopyFrom(src)
					if err := FloydWarshallDense(d, pool); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkKarpMaxMeanCycleDense(b *testing.B) {
	for _, n := range benchSizes {
		src := benchGraph(n, 1.0) // complete: the pipeline's actual workload
		comp := identity(n)
		for _, lanes := range benchLanes {
			b.Run(fmt.Sprintf("n=%d/lanes=%d", n, lanes), func(b *testing.B) {
				pool := NewPool(lanes)
				defer pool.Close()
				var scratch KarpScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := MaxMeanCycleDense(src, comp, &scratch, pool); !ok {
						b.Fatal("no cycle")
					}
				}
			})
		}
	}
}

func BenchmarkBellmanFordDense(b *testing.B) {
	src := benchGraph(128, 0.3)
	src.FillDiag(Inf)
	dist := make([]float64, 128)
	parent := make([]int, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BellmanFordDense(src, 0, dist, parent); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCCDense(b *testing.B) {
	src := benchGraph(256, 0.05)
	var scratch SCCScratch
	SCCDense(src, &scratch) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nc := SCCDense(src, &scratch); nc == 0 {
			b.Fatal("no components")
		}
	}
}
