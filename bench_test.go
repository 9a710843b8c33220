// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus the micro-benchmarks behind the throughput claims.
// Each experiment bench runs at a reduced scale suitable for `go test
// -bench=.`; cmd/experiments runs the same code at full scale.
//
// Custom metrics: experiment benches report the headline quantity of their
// artifact (e.g. missratio, reduction) via b.ReportMetric so the shape is
// visible straight from benchmark output.
package repro

import (
	"testing"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mrc"
	"repro/internal/sim"
	"repro/internal/sizeaware"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.Config{Seeds: 1, Objects: 4000, Requests: 60000}
}

// BenchmarkTable1 regenerates the dataset inventory (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchConfig())
		if len(rows) != 10 {
			b.Fatal("table1 incomplete")
		}
	}
}

// BenchmarkFig2 regenerates the §3 LP-FIFO vs LRU study (Figure 2).
func BenchmarkFig2(b *testing.B) {
	var lastWins int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		lastWins = res.DatasetsWon["large"]["fifo-reinsertion"]
	}
	b.ReportMetric(float64(lastWins), "datasets-won-1bit-large")
}

// BenchmarkFig3 regenerates the resource-consumption profiles (Figure 3).
func BenchmarkFig3(b *testing.B) {
	var unpopularLRU float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(benchConfig())
		for _, p := range res.Profiles {
			if p.Trace == "msr" && p.Policy == "lru" {
				unpopularLRU = p.Unpopular
			}
		}
	}
	b.ReportMetric(unpopularLRU, "lru-unpopular-share-msr")
}

// BenchmarkTable2 regenerates the miss-ratio table for LRU/ARC/LHD/Belady
// (Table 2; same computation as Figure 3, reported as miss ratios).
func BenchmarkTable2(b *testing.B) {
	var msrLRU, msrBelady float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(benchConfig())
		msrLRU = res.Table2["msr"]["lru"]
		msrBelady = res.Table2["msr"]["belady"]
	}
	b.ReportMetric(msrLRU, "missratio-msr-lru")
	b.ReportMetric(msrBelady, "missratio-msr-belady")
}

// BenchmarkFig5 regenerates the Quick Demotion study (Figure 5): the five
// state-of-the-art baselines, their QD variants, and QD-LP-FIFO.
func BenchmarkFig5(b *testing.B) {
	var meanQDLP float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		meanQDLP = res.MeanReduction["qd-lp-fifo"]
	}
	b.ReportMetric(meanQDLP*100, "qdlp-mean-reduction-pct")
}

// BenchmarkAblation regenerates the §5 design-choice studies.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 12 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkPolicyAccess measures the single-threaded cost of one cache
// reference for every registered policy on a Zipf workload — the paper's
// metadata-cost argument in microcosm (FIFO/CLOCK cheapest, LRU pointer
// surgery, sampled and learned policies dearest).
func BenchmarkPolicyAccess(b *testing.B) {
	tr := workload.TwitterLike().Generate(1, 20000, 200000)
	sim.Prepare(tr, true)
	for _, name := range core.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			p := core.MustNew(name, 2000)
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if p.Access(&tr.Requests[i%len(tr.Requests)]) {
					hits++
				}
			}
			_ = hits
		})
	}
}

// BenchmarkThroughput drives the thread-safe caches with parallel Zipf
// load (the §1–§3 scalability claim). ns/op is the per-operation latency
// under contention; compare concurrent-lru against concurrent-clock and
// concurrent-qdlp.
func BenchmarkThroughput(b *testing.B) {
	const capacity, shards, keySpace = 1 << 15, 16, 1 << 16
	for _, name := range concurrent.Names() {
		b.Run(name, func(b *testing.B) {
			c, err := concurrent.New(name, capacity, concurrent.WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			// Warm up so the measured loop is hit-dominated.
			concurrent.MeasureThroughput(c, 2, keySpace, keySpace, 7)
			keys := precomputeZipfKeys(keySpace, 1<<16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i&(len(keys)-1)]
					if _, ok := c.Get(k); !ok {
						c.Set(k, k)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkHitPath isolates the pure hit path (key always resident): the
// exact operation the paper says differentiates LRU (locked pointer
// updates) from CLOCK (one atomic store).
func BenchmarkHitPath(b *testing.B) {
	const capacity, shards = 1 << 12, 16
	for _, name := range concurrent.Names() {
		c, err := concurrent.New(name, capacity, concurrent.WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(0); k < 64; k++ {
			c.Set(k, k)
			c.Get(k) // QDLP: mark accessed so keys survive in small queue
		}
		b.Run(name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				k := uint64(0)
				for pb.Next() {
					c.Get(k & 63)
					k++
				}
			})
		})
	}
}

// BenchmarkMRC measures the exact and SHARDS-sampled miss-ratio-curve
// construction (the tooling behind size sweeps).
func BenchmarkMRC(b *testing.B) {
	tr := workload.TwitterLike().Generate(1, 10000, 150000)
	sizes := mrc.LogSizes(16, 4000, 12)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := mrc.LRU(tr.Requests, append([]int(nil), sizes...))
			if len(c.Ratios) != len(sizes) {
				b.Fatal("incomplete curve")
			}
		}
	})
	b.Run("shards-10pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := mrc.LRUSampled(tr.Requests, append([]int(nil), sizes...), 0.1)
			if len(c.Ratios) != len(sizes) {
				b.Fatal("incomplete curve")
			}
		}
	})
}

// BenchmarkSizeAware replays a sized CDN trace through the byte-capacity
// policies (the §5 future-work extension) and reports byte miss ratios.
func BenchmarkSizeAware(b *testing.B) {
	mkTrace := func() *trace.Trace {
		tr := workload.MajorCDNLike().Generate(1, 6000, 100000)
		workload.AssignSizes(tr, 4096)
		return tr
	}
	const capacity = 6000 * 4096 / 10
	for _, tc := range []struct {
		name   string
		policy string
	}{
		{"size-lru", "lru"},
		{"gdsf", "gdsf"},
		{"size-qd-lp-fifo", "qdlp"},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p, err := sizeaware.New(tc.policy, capacity)
				if err != nil {
					b.Fatal(err)
				}
				last = sizeaware.Run(p, mkTrace()).ByteMissRatio()
			}
			b.ReportMetric(last, "byte-missratio")
		})
	}
}

// BenchmarkTraceGeneration measures the synthetic workload generators.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, fam := range []workload.Family{workload.MSRLike(), workload.SocialLike()} {
		fam := fam
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := fam.Generate(int64(i+1), 4000, 50000)
				if tr.Len() != 50000 {
					b.Fatal("bad trace")
				}
			}
		})
	}
}

// BenchmarkAnnotate measures the offline next-access annotation pass.
func BenchmarkAnnotate(b *testing.B) {
	tr := workload.TwitterLike().Generate(1, 20000, 200000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Annotate(tr.Requests)
	}
}

func precomputeZipfKeys(keySpace, n int) []uint64 {
	tr := workload.Family{Name: "bench", Alpha: 1.0}.Generate(3, keySpace, n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = tr.Requests[i].Key
	}
	return keys
}
