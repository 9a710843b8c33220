// Package lirs implements the LIRS replacement policy (Jiang & Zhang,
// SIGMETRICS'02).
//
// LIRS ranks objects by Inter-Reference Recency (IRR, the number of other
// objects seen between consecutive references) rather than plain recency.
// Low-IRR (LIR) objects occupy most of the cache; high-IRR (HIR) objects
// get a tiny resident quota (1% by default) and a stack presence that lets
// a quick re-reference upgrade them to LIR. The paper lists LIRS among the
// five state-of-the-art algorithms it enhances with Quick Demotion (§4:
// QD-LIRS reduces LIRS's miss ratio by up to 49.6%, mean 2.2%) and notes
// that two open-source LIRS implementations used by prior work have bugs —
// hence the extensive invariant tests in this package.
package lirs

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("lirs", func(capacity int) core.Policy { return New(capacity) })
}

type state uint8

const (
	lir state = iota
	hirResident
	hirNonResident
)

// Policy is a LIRS cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	lirCap   int // target LIR population
	hirCap   int // target resident-HIR population
	nrCap    int // bound on nonresident entries retained in S

	// A key can be on the stack and on a queue at once, so the two
	// memberships live in two indexes over the same keys. stack holds S
	// and, per slot, the key's state. queues holds every HIR key, on q
	// while it is resident and on nonres while it is not: a nonresident
	// key is always on the stack too, so the stack slot's state (or its
	// absence) says which of the two lists a queues slot is on.
	stack    *slab.Index[state]
	s        slab.List // stack S: front = top (MRU end)
	queues   *slab.Index[struct{}]
	q        slab.List // queue Q: front = oldest resident HIR
	nonres   slab.List // FIFO over nonresident entries, for bounding
	lirCount int
}

// New returns a LIRS policy with 1% of capacity reserved for resident HIR
// objects and nonresident metadata bounded at 2× capacity.
func New(capacity int) *Policy {
	hirCap := capacity / 100
	if hirCap < 1 {
		hirCap = 1
	}
	lirCap := capacity - hirCap
	// Residents never exceed capacity; nonresidents exceed their bound by
	// the one that enforceNonresidentCap is about to drop.
	bound := capacity + 2*capacity + 1
	return &Policy{
		capacity: capacity,
		lirCap:   lirCap,
		hirCap:   hirCap,
		nrCap:    2 * capacity,
		stack:    slab.New[state](bound),
		queues:   slab.New[struct{}](bound),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lirs" }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.lirCount + p.q.Len() }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	if s := p.stack.Find(key); s != 0 {
		return *p.stack.Value(s) != hirNonResident
	}
	return p.queues.Find(key) != 0 // resident HIR pruned out of the stack
}

// LIRCount reports the current LIR population (for tests).
func (p *Policy) LIRCount() int { return p.lirCount }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	s := p.stack.Find(r.Key)
	if s == 0 {
		if q := p.queues.Find(r.Key); q != 0 {
			// Resident HIR only in Q: stays HIR, refreshed in both
			// structures.
			p.Hit(r.Key, r.Time)
			s = p.stack.Insert(r.Key)
			*p.stack.Value(s) = hirResident
			p.stack.PushFront(&p.s, s)
			p.queues.MoveToBack(&p.q, q)
			return true
		}
	} else if st := *p.stack.Value(s); st == lir {
		// LIR hit: move to stack top; the bottom may need pruning if this
		// was the bottom entry.
		p.stack.MoveToFront(&p.s, s)
		p.prune()
		p.Hit(r.Key, r.Time)
		return true
	} else if st == hirResident {
		// Resident HIR in S: upgrade to LIR; the stack bottom LIR demotes
		// to Q.
		p.Hit(r.Key, r.Time)
		p.queues.Remove(&p.q, p.queues.Find(r.Key))
		p.promote(s)
		return true
	}

	// Miss (new key, or nonresident HIR in S).
	if p.Len() >= p.capacity {
		p.evict(r.Time)
		if s != 0 {
			// Eviction may have pruned the nonresident entry we just
			// looked up; re-validate before using it.
			s = p.stack.Find(r.Key)
		}
	}
	if s != 0 {
		// Nonresident HIR in S: its reuse distance beats the stack bottom
		// LIR, so it comes back as LIR.
		p.queues.Remove(&p.nonres, p.queues.Find(r.Key))
		p.promote(s)
	} else {
		s = p.stack.Insert(r.Key)
		p.stack.PushFront(&p.s, s)
		if p.lirCount < p.lirCap {
			// Cold start: fill the LIR set first.
			p.lirCount++ // zero value = lir
		} else {
			*p.stack.Value(s) = hirResident
			p.queues.PushBack(&p.q, p.queues.Insert(r.Key))
		}
	}
	p.Insert(r.Key, r.Time)
	return false
}

// promote makes the HIR key in stack slot s, already off its queue, LIR at
// the stack top.
func (p *Policy) promote(s int32) {
	p.stack.MoveToFront(&p.s, s)
	*p.stack.Value(s) = lir
	p.lirCount++
	p.enforceLIRCap()
	p.prune()
}

// bottomLIR returns the lowest LIR slot of the stack, 0 when there is none.
func (p *Policy) bottomLIR() int32 {
	s := p.s.Back()
	for s != 0 && *p.stack.Value(s) != lir {
		s = p.stack.Prev(s)
	}
	return s
}

// evict frees one resident slot: the front of Q (oldest resident HIR); if Q
// is empty, the stack-bottom LIR demotes and is evicted directly.
func (p *Policy) evict(now int64) {
	if front := p.q.Front(); front != 0 {
		key := p.queues.Key(front)
		if s := p.stack.Find(key); s != 0 {
			*p.stack.Value(s) = hirNonResident
			p.queues.Unlink(&p.q, front)
			p.queues.PushBack(&p.nonres, front)
			p.enforceNonresidentCap()
		} else {
			p.queues.Remove(&p.q, front)
		}
		p.Evict(key, now)
		return
	}
	// Q empty: demote the bottom LIR and evict it.
	bottom := p.bottomLIR()
	if bottom == 0 {
		return // nothing resident; nothing to evict
	}
	key := p.stack.Key(bottom)
	p.stack.Remove(&p.s, bottom)
	p.lirCount--
	p.Evict(key, now)
	p.prune()
}

// enforceLIRCap demotes stack-bottom LIR entries to resident HIR (tail of
// Q) while the LIR set exceeds its target.
func (p *Policy) enforceLIRCap() {
	for p.lirCount > p.lirCap {
		bottom := p.bottomLIR()
		if bottom == 0 {
			return
		}
		key := p.stack.Key(bottom)
		p.stack.Remove(&p.s, bottom)
		p.queues.PushBack(&p.q, p.queues.Insert(key))
		p.lirCount--
		p.prune()
	}
}

// prune removes non-LIR entries from the stack bottom so the bottom entry
// is always LIR (the LIRS stack invariant). Pruned nonresident entries are
// forgotten entirely.
func (p *Policy) prune() {
	for {
		bottom := p.s.Back()
		if bottom == 0 || *p.stack.Value(bottom) == lir {
			return
		}
		if *p.stack.Value(bottom) == hirNonResident {
			p.queues.Remove(&p.nonres, p.queues.Find(p.stack.Key(bottom)))
		}
		// hirResident entries stay resident via Q; only their stack
		// presence (the fast-upgrade path) is lost.
		p.stack.Remove(&p.s, bottom)
	}
}

// enforceNonresidentCap bounds the metadata-only entries retained in S,
// dropping the oldest nonresident entries first.
func (p *Policy) enforceNonresidentCap() {
	for p.nonres.Len() > p.nrCap {
		oldest := p.nonres.Front()
		p.stack.Remove(&p.s, p.stack.Find(p.queues.Key(oldest)))
		p.queues.Remove(&p.nonres, oldest)
		p.prune()
	}
}
