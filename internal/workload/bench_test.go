package workload

import (
	"fmt"
	"math/rand"
	"testing"
)

var sinkInt int

// BenchmarkZipfNext times one draw at the catalog sizes the benchmark's
// workloads use (2^16 to 2^20 ranks), skew 0.99.
func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(rand.New(rand.NewSource(1)), n, 0.99)
			b.ResetTimer()
			s := 0
			for i := 0; i < b.N; i++ {
				s += z.Next()
			}
			sinkInt = s
		})
	}
}

// BenchmarkGenerate times Family.Generate per family at 2^17 requests over
// 2^13 objects, the shape of the benchmark's workload.gen_ns_per_req row,
// and reports the cost per generated request.
func BenchmarkGenerate(b *testing.B) {
	const objects, requests = 1 << 13, 1 << 17
	for _, f := range Families() {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt += f.Generate(1, objects, requests).Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/requests, "ns/req")
		})
	}
}
