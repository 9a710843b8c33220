package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

var sinkInt int

// benchTraces are twitter-like traces of 2^19 requests over 2^14 and 2^17
// objects: the first's key table fits in a core's L2, the second's does not.
func benchTraces(b *testing.B, run func(b *testing.B, tr *trace.Trace)) {
	for _, objects := range []int{1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			tr := workload.TwitterLike().Generate(1, objects, 1<<19)
			b.ResetTimer()
			run(b, tr)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/req")
		})
	}
}

func BenchmarkUniqueObjects(b *testing.B) {
	benchTraces(b, func(b *testing.B, tr *trace.Trace) {
		for i := 0; i < b.N; i++ {
			sinkInt += tr.UniqueObjects()
		}
	})
}

func BenchmarkAnnotate(b *testing.B) {
	benchTraces(b, func(b *testing.B, tr *trace.Trace) {
		for i := 0; i < b.N; i++ {
			tr.Annotate()
		}
	})
}

func BenchmarkComputeStats(b *testing.B) {
	benchTraces(b, func(b *testing.B, tr *trace.Trace) {
		for i := 0; i < b.N; i++ {
			sinkInt += tr.ComputeStats().Objects
		}
	})
}
