package concurrent

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// ThroughputResult reports one load-generation run.
type ThroughputResult struct {
	Ops     int64
	Hits    int64
	Elapsed time.Duration
}

// OpsPerSecond returns the aggregate operation rate.
func (r ThroughputResult) OpsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// HitRatio returns hits/ops.
func (r ThroughputResult) HitRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ops)
}

// ZipfStreams pre-generates workers key streams over a Zipf-popular key
// space of keySpace keys, with stream lengths that sum exactly to totalOps
// (the remainder goes to the first totalOps%workers streams). Deterministic
// per (seed, workers). Shared by MeasureThroughput and the network load
// client so in-process and over-the-wire runs replay identical load.
func ZipfStreams(workers, totalOps, keySpace int, seed int64) [][]uint64 {
	if workers < 1 {
		workers = 1
	}
	base, extra := totalOps/workers, totalOps%workers
	streams := make([][]uint64, workers)
	for g := range streams {
		n := base
		if g < extra {
			n++
		}
		rng := rand.New(rand.NewSource(seed + int64(g)*1009))
		z := workload.NewZipf(rng, keySpace, 1.0)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(z.Next())
		}
		streams[g] = keys
	}
	return streams
}

// MeasureThroughput drives cache with goroutines workers issuing totalOps
// get-or-set operations in aggregate over a Zipf-popular key space of
// keySpace keys (the standard cache micro-benchmark shape). Per-worker
// counts sum exactly to totalOps; the reported Ops is the number actually
// issued. Deterministic per (seed, goroutines).
func MeasureThroughput(cache Cache, goroutines, totalOps, keySpace int, seed int64) ThroughputResult {
	if goroutines < 1 {
		goroutines = 1
	}
	// Pre-generate per-worker key streams so the measured loop contains no
	// generator work.
	streams := ZipfStreams(goroutines, totalOps, keySpace, seed)

	var hits atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(keys []uint64) {
			defer wg.Done()
			local := int64(0)
			for _, k := range keys {
				if _, ok := cache.Get(k); ok {
					local++
				} else {
					cache.Set(k, k)
				}
			}
			hits.Add(local)
		}(streams[g])
	}
	wg.Wait()
	elapsed := time.Since(start)
	issued := int64(0)
	for _, s := range streams {
		issued += int64(len(s))
	}
	return ThroughputResult{Ops: issued, Hits: hits.Load(), Elapsed: elapsed}
}
