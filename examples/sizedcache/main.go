// Sizedcache: the paper's future-work direction (§5) — size-aware Lazy
// Promotion and Quick Demotion — made concrete.
//
// Web objects vary over orders of magnitude in size, so a byte-bounded
// cache must weigh a hit's value against its footprint. This example
// replays a CDN-like trace with log-normal object sizes against the
// simulator's clock, lru and qd under a byte cap (and GDSF), as
// internal/sizeaware names them, and reports both object and byte miss
// ratios.
//
//	go run ./examples/sizedcache
package main

import (
	"fmt"
	"log"

	"repro/internal/sizeaware"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const (
		objects   = 20000
		requests  = 400000
		medianKiB = 4
	)
	mkTrace := func() *trace.Trace {
		tr := workload.MajorCDNLike().Generate(1, objects, requests)
		workload.AssignSizes(tr, medianKiB*1024)
		return tr
	}
	probe := mkTrace()
	var footprint int64
	seen := map[uint64]bool{}
	for _, r := range probe.Requests {
		if !seen[r.Key] {
			seen[r.Key] = true
			footprint += int64(r.Size)
		}
	}
	capacity := footprint / 10
	fmt.Printf("sized CDN trace: %d requests, %d objects, %.1f MiB footprint, cache %.1f MiB\n\n",
		len(probe.Requests), len(seen), float64(footprint)/(1<<20), float64(capacity)/(1<<20))

	tb := stats.NewTable("policy", "object miss ratio", "byte miss ratio")
	for _, name := range []string{"fifo", "lru", "clock", "gdsf", "qdlp"} {
		p, err := sizeaware.New(name, capacity)
		if err != nil {
			log.Fatalf("sizeaware.New(%q): %v", name, err)
		}
		res := sizeaware.Run(p, mkTrace())
		tb.AddRow(res.Policy, res.MissRatio(), res.ByteMissRatio())
	}
	fmt.Print(tb)
	fmt.Println("\nGDSF trades byte hits for object hits (evicting large objects first);")
	fmt.Println("size-aware QD-LP-FIFO filters one-hit wonders of every size and keeps")
	fmt.Println("the lock-free hit path.")
}
