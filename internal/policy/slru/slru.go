// Package slru implements Segmented LRU (Karedla et al., 1994).
//
// SLRU splits the cache into a probationary segment, where new objects
// land, and a protected segment reserved for objects hit at least once.
// Evictions come from the probationary tail, so one-hit wonders never
// displace proven objects — an early, partial form of the paper's Quick
// Demotion idea (§4 cites SLRU among the algorithms inspired by it).
package slru

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("slru", func(capacity int) core.Policy { return New(capacity, 0.8) })
}

// Policy is an SLRU cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity     int
	protectedCap int
	idx          *slab.Index[bool] // value = the slot is in the protected segment
	prob         slab.List         // front = MRU
	prot         slab.List         // front = MRU
}

// New returns an SLRU policy. protectedFrac is the fraction of capacity
// reserved for the protected segment (commonly 0.8); it is clamped so both
// segments can hold at least one object when capacity permits.
func New(capacity int, protectedFrac float64) *Policy {
	if protectedFrac < 0 || protectedFrac > 1 {
		panic(fmt.Sprintf("slru: protectedFrac must be in [0,1], got %v", protectedFrac))
	}
	pc := int(float64(capacity) * protectedFrac)
	if pc >= capacity {
		pc = capacity - 1
	}
	if pc < 0 {
		pc = 0
	}
	return &Policy{
		capacity:     capacity,
		protectedCap: pc,
		idx:          slab.New[bool](capacity),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "slru" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.prob.Len() + p.prot.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// ProtectedLen reports the protected segment's population (for tests).
func (p *Policy) ProtectedLen() int { return p.prot.Len() }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		p.Hit(r.Key, r.Time)
		if *p.idx.Value(s) {
			p.idx.MoveToFront(&p.prot, s)
			return true
		}
		// Promote probationary → protected.
		p.relink(s, &p.prob, &p.prot)
		// If protected overflows, demote its LRU back to probationary MRU;
		// no data leaves the cache.
		if p.prot.Len() > p.protectedCap {
			p.relink(p.prot.Back(), &p.prot, &p.prob)
		}
		return true
	}
	if p.Len() >= p.capacity {
		p.evict(r.Time)
	}
	p.idx.PushFront(&p.prob, p.idx.Insert(r.Key))
	p.Insert(r.Key, r.Time)
	return false
}

// relink moves s from one segment to the MRU end of the other.
func (p *Policy) relink(s int32, from, to *slab.List) {
	p.idx.Unlink(from, s)
	*p.idx.Value(s) = to == &p.prot
	p.idx.PushFront(to, s)
}

// evict removes the probationary LRU; if the probationary segment is empty
// (possible when protectedCap is 0 or after demotions), the protected LRU
// goes instead.
func (p *Policy) evict(now int64) {
	victim, list := p.prob.Back(), &p.prob
	if victim == 0 {
		victim, list = p.prot.Back(), &p.prot
	}
	key := p.idx.Key(victim)
	p.idx.Remove(list, victim)
	p.Evict(key, now)
}
