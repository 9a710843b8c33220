// Package twoq implements the 2Q eviction algorithm (Johnson & Shasha,
// VLDB'94).
//
// 2Q keeps new objects in a FIFO admission queue A1in; objects evicted from
// A1in are remembered (metadata only) in the ghost queue A1out; an object
// re-referenced while in A1out is admitted to the main LRU queue Am. The
// paper (§4, §5) discusses 2Q as a precursor of Quick Demotion that uses a
// much larger probationary queue (25% of the cache) than QD's 10%.
package twoq

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ghost"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	// Classic parameters from the 2Q paper: Kin = 25% of cache,
	// Kout entries = 50% of cache.
	core.Register("2q", func(capacity int) core.Policy { return New(capacity, 0.25, 0.5) })
}

// Policy is a 2Q cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	kin      int               // max population of a1in
	idx      *slab.Index[bool] // value = the slot is on am, not a1in
	a1in     slab.List         // FIFO: front = oldest
	am       slab.List         // LRU: front = MRU
	a1out    *ghost.Queue
}

// New returns a 2Q policy. kinFrac is the fraction of capacity used by the
// A1in FIFO; koutFrac scales the A1out ghost entry count relative to
// capacity.
func New(capacity int, kinFrac, koutFrac float64) *Policy {
	if kinFrac <= 0 || kinFrac > 1 {
		panic(fmt.Sprintf("twoq: kinFrac must be in (0,1], got %v", kinFrac))
	}
	kin := int(float64(capacity) * kinFrac)
	if kin < 1 {
		kin = 1
	}
	kout := int(float64(capacity) * koutFrac)
	if kout < 1 {
		kout = 1
	}
	return &Policy{
		capacity: capacity,
		kin:      kin,
		idx:      slab.New[bool](capacity),
		a1out:    ghost.New(kout),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "2q" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.a1in.Len() + p.am.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		p.Hit(r.Key, r.Time)
		if *p.idx.Value(s) {
			p.idx.MoveToFront(&p.am, s)
		}
		// Hits in A1in deliberately do nothing (correlated references
		// should not earn promotion — the 2Q paper's key insight).
		return true
	}
	// Reference while remembered: admit directly into Am.
	remembered := p.a1out.Remove(r.Key)
	p.makeRoom(r.Time)
	s := p.idx.Insert(r.Key)
	if remembered {
		*p.idx.Value(s) = true
		p.idx.PushFront(&p.am, s)
	} else {
		p.idx.PushBack(&p.a1in, s)
	}
	p.Insert(r.Key, r.Time)
	return false
}

// makeRoom frees one slot if the cache is full: prefer reclaiming from
// A1in when it exceeds Kin (remembering the key in A1out), otherwise evict
// the Am LRU; with Am empty, fall back to A1in regardless of Kin.
func (p *Policy) makeRoom(now int64) {
	if p.Len() < p.capacity {
		return
	}
	var key uint64
	if victim := p.am.Back(); victim != 0 && p.a1in.Len() < p.kin {
		key = p.idx.Key(victim)
		p.idx.Remove(&p.am, victim)
	} else {
		victim = p.a1in.Front()
		key = p.idx.Key(victim)
		p.idx.Remove(&p.a1in, victim)
		p.a1out.Add(key)
	}
	p.Evict(key, now)
}
