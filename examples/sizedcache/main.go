// Sizedcache: the paper's future-work direction (§5) — size-aware Lazy
// Promotion and Quick Demotion — made concrete.
//
// Web objects vary over orders of magnitude in size, so a byte-bounded
// cache must weigh a hit's value against its footprint. This example
// replays a CDN-like trace with log-normal object sizes through sim.Run
// against the simulator's clock, lru and qd built with their byte-capped
// NewBytes constructors (and GDSF), and reports both object and byte miss
// ratios.
//
//	go run ./examples/sizedcache
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/gdsf"
	"repro/internal/policy/lru"
	"repro/internal/policy/qd"
	"repro/internal/sim"
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
	footprint := 0
	seen := map[uint64]bool{}
	for _, r := range probe.Requests {
		if !seen[r.Key] {
			seen[r.Key] = true
			footprint += int(r.Size)
		}
	}
	capacity := footprint / 10
	fmt.Printf("sized CDN trace: %d requests, %d objects, %.1f MiB footprint, cache %.1f MiB\n\n",
		len(probe.Requests), len(seen), float64(footprint)/(1<<20), float64(capacity)/(1<<20))

	tb := stats.NewTable("policy", "object miss ratio", "byte miss ratio")
	for _, p := range []struct {
		name   string
		policy core.Policy
	}{
		{"size-fifo", clock.NewBytes(capacity, 0)},
		{"size-lru", lru.NewBytes(capacity)},
		{"size-clock", clock.NewBytes(capacity, 2)},
		{"gdsf", gdsf.NewBytes(capacity)},
		{"size-qd-lp-fifo", qd.NewBytes(capacity, qd.Options{}, 2)},
	} {
		res := sim.Run(p.policy, mkTrace())
		tb.AddRow(p.name, res.MissRatio(), res.ByteMissRatio())
	}
	fmt.Print(tb)
	fmt.Println("\nGDSF trades byte hits for object hits (evicting large objects first);")
	fmt.Println("size-aware QD-LP-FIFO filters one-hit wonders of every size and keeps")
	fmt.Println("the lock-free hit path.")
}
