// Package sieve implements the SIEVE eviction algorithm.
//
// SIEVE is the follow-up algorithm spawned by this paper's Lazy Promotion
// insight (Zhang et al., NSDI'24): a single FIFO queue with one visited bit
// per object and a hand that, unlike CLOCK's, keeps its position after an
// eviction instead of resetting to the queue tail. Surviving (visited)
// objects therefore stay where they are — "lazy promotion via retention" —
// and new objects inserted at the head are examined quickly, giving quick
// demotion for free. Included as an extension beyond the paper's own
// algorithms. The hand is internal/evict's.
package sieve

import (
	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	core.Register("sieve", func(capacity int) core.Policy { return New(capacity) })
}

// Policy is a SIEVE cache. Not safe for concurrent use.
type Policy struct {
	policyutil.Adapter
}

// New returns a SIEVE policy with the given capacity in objects.
func New(capacity int) *Policy {
	p := &Policy{}
	p.Init(evict.Config{Rule: evict.SIEVE, Budget: int64(capacity), Bits: 1, MinCost: 1}, &p.Adapter)
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "sieve" }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if n := p.E.X.Find(r.Key); n != 0 {
		p.E.X.Value(n).Freq = 1 // visited
		p.Hit(r.Key, r.Time)
		return true
	}
	p.Miss(r, 0)
	return false
}
