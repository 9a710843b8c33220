// Package sieve implements the SIEVE eviction algorithm.
//
// SIEVE is the follow-up algorithm spawned by this paper's Lazy Promotion
// insight (Zhang et al., NSDI'24): a single FIFO queue with one visited bit
// per object and a hand that, unlike CLOCK's, keeps its position after an
// eviction instead of resetting to the queue tail. Surviving (visited)
// objects therefore stay where they are — "lazy promotion via retention" —
// and new objects inserted at the head are examined quickly, giving quick
// demotion for free. Included as an extension beyond the paper's own
// algorithms.
package sieve

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("sieve", func(capacity int) core.Policy { return New(capacity) })
}

// Policy is a SIEVE cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	idx      *slab.Index[bool] // value = visited bit
	queue    slab.List         // front = newest (head), back = oldest (tail)
	hand     int32             // retained sweep position, 0 = start from the tail
}

// New returns a SIEVE policy with the given capacity in objects.
func New(capacity int) *Policy {
	return &Policy{capacity: capacity, idx: slab.New[bool](capacity)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "sieve" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.queue.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// Remove implements core.Remover. Removing the slot under the hand moves
// the hand one step toward the head first, preserving the sweep position.
func (p *Policy) Remove(key uint64) bool {
	s := p.idx.Find(key)
	if s == 0 {
		return false
	}
	if p.hand == s {
		p.hand = p.idx.Prev(s)
	}
	p.idx.Remove(&p.queue, s)
	p.Evict(key, 0)
	return true
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		*p.idx.Value(s) = true
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.queue.Len() >= p.capacity {
		p.evict(r.Time)
	}
	p.idx.PushFront(&p.queue, p.idx.Insert(r.Key))
	p.Insert(r.Key, r.Time)
	return false
}

// evict moves the hand from its retained position toward the head,
// clearing visited bits, and evicts the first unvisited object. Objects are
// never moved in the queue.
func (p *Policy) evict(now int64) {
	s := p.hand
	if s == 0 {
		s = p.queue.Back()
	}
	for visited := p.idx.Value(s); *visited; visited = p.idx.Value(s) {
		*visited = false
		s = p.idx.Prev(s) // toward the head (newer objects)
		if s == 0 {
			s = p.queue.Back() // wrap to the tail
		}
	}
	p.hand = p.idx.Prev(s) // retained position: may be 0 (head), next evict wraps
	key := p.idx.Key(s)
	p.idx.Remove(&p.queue, s)
	p.Evict(key, now)
}
