// Throughput: the scalability argument of §1–§3, measured.
//
// Each LRU hit splices a list node to the queue head — six pointer writes
// under an exclusive lock — so concurrent readers serialize. CLOCK, SIEVE
// and QD-LP-FIFO hits store one atomic counter under a shared lock, so
// readers proceed in parallel. This example drives identical Zipf load
// through the four thread-safe caches in internal/concurrent at increasing
// goroutine counts and prints the aggregate op rate.
//
//	go run ./examples/throughput
package main

import (
	"fmt"
	"runtime"

	"repro/internal/concurrent"
	"repro/internal/stats"
)

func main() {
	const (
		capacity = 1 << 16
		shards   = 16
		keySpace = 1 << 17
		totalOps = 300000
	)
	fmt.Printf("GOMAXPROCS=%d (scalability gaps grow with real core counts)\n\n", runtime.GOMAXPROCS(0))

	mkCaches := func() []concurrent.Cache {
		out := make([]concurrent.Cache, 0, len(concurrent.Names()))
		for _, name := range concurrent.Names() {
			c, err := concurrent.New(name, capacity, concurrent.WithShards(shards))
			check(err)
			out = append(out, c)
		}
		return out
	}

	tb := stats.NewTable("cache", "goroutines", "Mops/s", "hit ratio")
	for _, g := range []int{1, 2, 4, 8} {
		for _, c := range mkCaches() {
			// Warm the cache before measuring.
			concurrent.MeasureThroughput(c, g, totalOps/4, keySpace, 42)
			res := concurrent.MeasureThroughput(c, g, totalOps, keySpace, 1)
			tb.AddRow(c.Name(), g,
				fmt.Sprintf("%.2f", res.OpsPerSecond()/1e6),
				fmt.Sprintf("%.3f", res.HitRatio()))
		}
	}
	fmt.Print(tb)
	fmt.Println("\nThe hit paths differ: concurrent-lru locks exclusively per hit;")
	fmt.Println("the other three (clock, qdlp, sieve) take a shared lock and do one")
	fmt.Println("atomic store — the lazy-promotion discipline from the paper.")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
