// Package fifo implements plain first-in-first-out eviction.
//
// FIFO is the base algorithm of the paper: no promotion ever happens, the
// insertion order is the eviction order. It has the least metadata and the
// cheapest hit path of any policy (nothing is updated on a hit), which is
// why the paper builds its Lazy Promotion and Quick Demotion techniques on
// top of it rather than on LRU.
package fifo

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("fifo", func(capacity int) core.Policy { return New(capacity) })
}

// Policy is a FIFO cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	idx      *slab.Index[struct{}]
	queue    slab.List // front = oldest
}

// New returns a FIFO policy with the given capacity in objects.
func New(capacity int) *Policy {
	return &Policy{capacity: capacity, idx: slab.New[struct{}](capacity)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "fifo" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.queue.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

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
	if p.idx.Find(r.Key) != 0 {
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.queue.Len() >= p.capacity {
		p.drop(p.queue.Front(), r.Time)
	}
	p.idx.PushBack(&p.queue, p.idx.Insert(r.Key))
	p.Insert(r.Key, r.Time)
	return false
}

func (p *Policy) drop(s int32, now int64) {
	key := p.idx.Key(s)
	p.idx.Remove(&p.queue, s)
	p.Evict(key, now)
}
