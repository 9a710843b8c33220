// Package car implements CAR — Clock with Adaptive Replacement (Bansal &
// Modha, FAST'04), cited by the paper as [11].
//
// CAR is ARC with the two LRU queues T1/T2 replaced by CLOCK rings: a hit
// just sets a reference bit (lazy promotion), and the replacement sweep
// gives referenced pages a second chance by moving them into T2. §5 of the
// paper observes that "replacing the LRU queues in ARC with
// FIFO-Reinsertion also reduces the miss ratio" — CAR is the canonical
// form of that substitution, and the ablation experiment compares it
// against ARC directly.
package car

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("car", func(capacity int) core.Policy { return New(capacity) })
}

type listID uint8

const (
	inT1 listID = iota
	inT2
	inB1
	inB2
)

type entry struct {
	loc listID
	ref bool
}

// Policy is a CAR cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	p        int                // target size of T1
	idx      *slab.Index[entry] // directory: T1, T2 and the two ghost lists
	t1, t2   slab.List          // clocks: front = hand (next candidate)
	b1, b2   slab.List          // ghosts: front = MRU
}

// New returns a CAR policy with the given capacity in objects.
func New(capacity int) *Policy {
	return &Policy{capacity: capacity, idx: slab.New[entry](2 * capacity)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "car" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.t1.Len() + p.t2.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	s := p.idx.Find(key)
	return s != 0 && resident(p.idx.Value(s).loc)
}

func resident(loc listID) bool { return loc == inT1 || loc == inT2 }

// Target exposes the adaptation target (for tests).
func (p *Policy) Target() int { return p.p }

// Access implements core.Policy (Figure 2 of the FAST'04 paper).
func (p *Policy) Access(r *trace.Request) bool {
	x := r.Key
	s := p.idx.Find(x)
	if s != 0 {
		if e := p.idx.Value(s); resident(e.loc) {
			// Cache hit: set the reference bit and nothing else — the
			// entire lazy-promotion hit path.
			e.ref = true
			p.Hit(x, r.Time)
			return true
		}
	}
	// Miss.
	if p.Len() == p.capacity {
		p.replace(r.Time)
		if s == 0 {
			// Directory bound maintenance for a completely new key.
			if p.t1.Len()+p.b1.Len() == p.capacity {
				p.idx.Remove(&p.b1, p.b1.Back())
			} else if p.t1.Len()+p.t2.Len()+p.b1.Len()+p.b2.Len() == 2*p.capacity {
				p.idx.Remove(&p.b2, p.b2.Back())
			}
		}
	}
	if s == 0 {
		// Completely new key: the tail of T1 with the bit clear.
		p.idx.PushBack(&p.t1, p.idx.Insert(x)) // zero value = inT1
		p.Insert(x, r.Time)
		return false
	}
	// History hit: B1 favours recency, B2 frequency; either way the key
	// comes back at T2's tail with the bit clear.
	if e := p.idx.Value(s); e.loc == inB1 {
		p.p = min(p.p+max(1, p.b2.Len()/max(1, p.b1.Len())), p.capacity)
		p.idx.Unlink(&p.b1, s)
	} else {
		p.p = max(p.p-max(1, p.b1.Len()/max(1, p.b2.Len())), 0)
		p.idx.Unlink(&p.b2, s)
	}
	*p.idx.Value(s) = entry{loc: inT2}
	p.idx.PushBack(&p.t2, s)
	p.Insert(x, r.Time)
	return false
}

// replace runs the CAR replacement sweep: T1's hand demotes unreferenced
// pages to B1 and promotes referenced ones into T2; T2's hand recycles
// referenced pages and demotes the rest to B2. T1 is swept while it is at or
// over its target, and regardless of the target when T2 is empty.
func (p *Policy) replace(now int64) {
	for {
		if p.t1.Len() >= max(1, p.p) || p.t2.Len() == 0 {
			hand := p.t1.Front()
			if hand == 0 {
				return
			}
			p.idx.Unlink(&p.t1, hand)
			if !p.idx.Value(hand).ref {
				p.demote(hand, &p.b1, inB1, now)
				return
			}
			*p.idx.Value(hand) = entry{loc: inT2}
			p.idx.PushBack(&p.t2, hand)
			continue
		}
		hand := p.t2.Front()
		if e := p.idx.Value(hand); e.ref {
			e.ref = false
			p.idx.MoveToBack(&p.t2, hand)
			continue
		}
		p.idx.Unlink(&p.t2, hand)
		p.demote(hand, &p.b2, inB2, now)
		return
	}
}

// demote puts an unlinked page at the MRU end of a ghost list: its data
// leaves the cache, its directory entry only changes lists.
func (p *Policy) demote(s int32, ghost *slab.List, loc listID, now int64) {
	p.idx.Value(s).loc = loc
	p.idx.PushFront(ghost, s)
	p.Evict(p.idx.Key(s), now)
}
