package all

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/gdsf"
	"repro/internal/policy/lru"
	"repro/internal/policy/qd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// byteCapped is a policy built with its package's NewBytes: its capacity and
// its use are counted in bytes.
type byteCapped interface {
	core.Policy
	Used() int
}

// sizedPolicies are the byte-capped policies, under the names the sized
// golden table keys them by: size-aware FIFO (a 0-bit CLOCK), CLOCK, LRU,
// GDSF and QD-LP-FIFO (probation in front of a 2-bit CLOCK).
var sizedPolicies = []struct {
	name string
	new  func(capacity int) byteCapped
}{
	{"fifo", func(c int) byteCapped { return clock.NewBytes(c, 0) }},
	{"clock", func(c int) byteCapped { return clock.NewBytes(c, 2) }},
	{"lru", func(c int) byteCapped { return lru.NewBytes(c) }},
	{"gdsf", func(c int) byteCapped { return gdsf.NewBytes(c) }},
	{"qdlp", func(c int) byteCapped {
		return qd.NewBytes(c, qd.Options{}, 2)
	}},
}

func sizedTrace(seed int64) *trace.Trace {
	tr := workload.MajorCDNLike().Generate(seed, 5000, 100000)
	workload.AssignSizes(tr, 4096)
	return tr
}

// Every byte-capped policy keeps its used bytes within capacity and hits
// exactly the keys that were resident.
func TestContract(t *testing.T) {
	tr := sizedTrace(1)
	for _, sp := range sizedPolicies {
		t.Run(sp.name, func(t *testing.T) {
			p := sp.new(1 << 22)
			for i := range tr.Requests {
				r := &tr.Requests[i]
				before := p.Contains(r.Key)
				if hit := p.Access(r); hit != before {
					t.Fatalf("req %d: hit=%v resident-before=%v", i, hit, before)
				}
				if p.Used() > p.Capacity() || p.Used() < 0 {
					t.Fatalf("req %d: used %d of capacity %d", i, p.Used(), p.Capacity())
				}
			}
			if p.Len() == 0 {
				t.Fatal("cache empty after replay")
			}
		})
	}
}

// An object larger than the cache is never admitted.
func TestOversizedObjectBypassed(t *testing.T) {
	for _, sp := range sizedPolicies {
		t.Run(sp.name, func(t *testing.T) {
			p := sp.new(1000)
			r := trace.Request{Key: 1, Size: 5000}
			if p.Access(&r) {
				t.Fatal("hit on first access")
			}
			if p.Contains(1) || p.Used() != 0 {
				t.Fatalf("oversized object admitted: resident %v, used %d", p.Contains(1), p.Used())
			}
		})
	}
}

// On one-hit-heavy sized web workloads, size-aware QD-LP-FIFO beats
// size-aware LRU on byte miss ratio, and GDSF beats plain FIFO on object
// miss ratio.
func TestSizedWorkloadOrdering(t *testing.T) {
	const capacity = 5000 * 4096 / 10 // ~10% of the footprint
	run := map[string]sim.Result{}
	for _, sp := range sizedPolicies {
		run[sp.name] = sim.Run(sp.new(capacity), sizedTrace(3))
	}
	if qdlp, lru := run["qdlp"], run["lru"]; qdlp.ByteMissRatio() >= lru.ByteMissRatio() {
		t.Errorf("size-qd-lp-fifo (%.4f) not better than size-lru (%.4f) on byte miss ratio",
			qdlp.ByteMissRatio(), lru.ByteMissRatio())
	}
	if gdsf, fifo := run["gdsf"], run["fifo"]; gdsf.MissRatio() >= fifo.MissRatio() {
		t.Errorf("gdsf (%.4f) not better than fifo (%.4f) on object miss ratio",
			gdsf.MissRatio(), fifo.MissRatio())
	}
}
