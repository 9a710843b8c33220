// Package lru implements least-recently-used eviction.
//
// LRU is the paper's primary baseline: it promotes eagerly — every hit
// moves the object to the head of the queue — and demotes passively, since
// objects are pushed toward the tail only by promotions and insertions in
// front of them. The eager promotion is exactly what makes LRU expensive in
// production (six pointer writes under a lock per hit, see
// internal/concurrent), and the passive demotion is what Quick Demotion
// attacks.
package lru

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("lru", func(capacity int) core.Policy { return New(capacity) })
}

// Policy is an LRU cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int                 // in cost units: objects, or bytes under a byte cap
	used     int                 // cost of the resident objects
	byBytes  bool                // an object costs its Size rather than 1
	idx      *slab.Index[uint32] // value = what the object was charged
	queue    slab.List           // front = most recently used
}

// New returns an LRU policy with the given capacity in objects.
func New(capacity int) *Policy {
	return &Policy{capacity: capacity, idx: slab.New[uint32](capacity)}
}

// NewBytes returns an LRU policy with the given capacity in bytes: an entry
// cap is a byte cap at cost 1, so the one difference from New is that an
// object is charged its Request.Size. One larger than the cache is never
// admitted.
func NewBytes(capacity int) *Policy {
	return &Policy{capacity: capacity, byBytes: true, idx: slab.New[uint32](policyutil.Unbounded)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lru" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.queue.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Used returns the cost of the resident objects: their number, or under a
// byte cap their total size.
func (p *Policy) Used() int { return p.used }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// Victim returns the key that would be evicted next (the LRU tail) without
// evicting it. Admission filters (TinyLFU) use it for the frequency duel.
func (p *Policy) Victim() (uint64, bool) {
	s := p.queue.Back()
	if s == 0 {
		return 0, false
	}
	return p.idx.Key(s), true
}

// Remove implements core.Remover.
func (p *Policy) Remove(key uint64) bool {
	s := p.idx.Find(key)
	if s == 0 {
		return false
	}
	p.drop(s, 0)
	return true
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		p.idx.MoveToFront(&p.queue, s) // eager promotion
		p.Hit(r.Key, r.Time)
		return true
	}
	cost := 1
	if p.byBytes {
		cost = int(r.Size)
	}
	if cost > p.capacity {
		return false // larger than the cache: bypass
	}
	for p.used+cost > p.capacity {
		p.drop(p.queue.Back(), r.Time)
	}
	s := p.idx.Insert(r.Key)
	*p.idx.Value(s) = uint32(cost)
	p.idx.PushFront(&p.queue, s)
	p.used += cost
	p.Insert(r.Key, r.Time)
	return false
}

func (p *Policy) drop(s int32, now int64) {
	key := p.idx.Key(s)
	p.used -= int(*p.idx.Value(s))
	p.idx.Remove(&p.queue, s)
	p.Evict(key, now)
}
