// Package lru implements least-recently-used eviction.
//
// LRU is the paper's primary baseline: it promotes eagerly — every hit
// moves the object to the head of the queue — and demotes passively, since
// objects are pushed toward the tail only by promotions and insertions in
// front of them. The eager promotion is exactly what makes LRU expensive in
// production (six pointer writes under a lock per hit, see
// internal/concurrent), and the passive demotion is what Quick Demotion
// attacks. The tail eviction is internal/evict's.
package lru

import (
	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	core.Register("lru", func(capacity int) core.Policy { return New(capacity) })
}

// Policy is an LRU cache. Not safe for concurrent use.
type Policy struct {
	policyutil.Adapter
}

// New returns an LRU policy with the given capacity in objects.
func New(capacity int) *Policy { return build(capacity, false) }

// NewBytes returns an LRU policy with the given capacity in bytes: an entry
// cap is a byte cap at cost 1, so the one difference from New is that an
// object is charged its Request.Size. One larger than the cache is never
// admitted.
func NewBytes(capacity int) *Policy { return build(capacity, true) }

func build(capacity int, byBytes bool) *Policy {
	p := &Policy{}
	p.Init(evict.Config{Rule: evict.LRU, Budget: int64(capacity), Bytes: byBytes, MinCost: 1}, &p.Adapter)
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lru" }

// Victim returns the key that would be evicted next (the LRU tail) without
// evicting it. Admission filters (TinyLFU) use it for the frequency duel.
func (p *Policy) Victim() (uint64, bool) {
	n := p.E.Main.List.Back()
	if n == 0 {
		return 0, false
	}
	return p.E.X.Key(n), true
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if n := p.E.X.Find(r.Key); n != 0 {
		p.E.X.MoveToFront(&p.E.Main.List, n) // eager promotion
		p.Hit(r.Key, r.Time)
		return true
	}
	p.Miss(r, 0)
	return false
}
