package clocksync_test

import (
	"testing"

	"clocksync/internal/benchcase"
)

// BenchmarkCore runs every case of the BENCH_core.json ledger as
// BenchmarkCore/<name>; cmd/benchjson measures the same list. Each
// sub-benchmark builds its case, warms it with one op, then times b.N
// ops.
func BenchmarkCore(b *testing.B) {
	for _, c := range benchcase.All() {
		b.Run(c.Name, func(b *testing.B) {
			op, release, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			if err := op(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
