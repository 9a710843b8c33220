// Package arc implements Adaptive Replacement Cache (Megiddo & Modha,
// FAST'03), following the paper's Figure 4 pseudocode exactly.
//
// ARC partitions the cache into a recency list T1 and a frequency list T2,
// with ghost lists B1 and B2 remembering recent evictions from each. The
// adaptation target p grows when ghost hits land in B1 (favoring recency)
// and shrinks on B2 hits (favoring frequency). ARC is the strongest of the
// five state-of-the-art algorithms the paper enhances with Quick Demotion:
// §4 reports ARC reduces LRU's miss ratio by 6.2% on average, and QD-ARC
// reduces ARC's by up to 59.8%.
package arc

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("arc", func(capacity int) core.Policy { return New(capacity) })
	// §5 claim: "manually limiting the queue size and slowing down the
	// queue size adjustment often reduce miss ratios". arc-damped slows
	// the adaptation 4× and caps T1's target at half the cache.
	core.Register("arc-damped", func(capacity int) core.Policy {
		return NewWithOptions(capacity, Options{Damping: 4, MaxTargetFrac: 0.5})
	})
}

// Options tunes ARC's adaptation, for the §5 ablation study. Zero values
// select the canonical FAST'03 behaviour.
type Options struct {
	// Damping divides every adaptation step (1 = canonical).
	Damping int
	// MaxTargetFrac caps the T1 target p at this fraction of capacity
	// (0 = uncapped).
	MaxTargetFrac float64
}

type listID uint8

const (
	inT1 listID = iota
	inT2
	inB1
	inB2
)

// Policy is an ARC cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	p        int // adaptation target for |T1|
	damping  int
	maxP     int
	name     string
	idx      *slab.Index[listID] // directory: value = the list the key is on
	t1, t2   slab.List           // front = MRU
	b1, b2   slab.List           // front = MRU
}

// New returns a canonical ARC policy with the given capacity in objects.
func New(capacity int) *Policy { return NewWithOptions(capacity, Options{}) }

// NewWithOptions returns an ARC with tuned adaptation (see Options).
func NewWithOptions(capacity int, opts Options) *Policy {
	damping := opts.Damping
	if damping < 1 {
		damping = 1
	}
	maxP := capacity
	name := "arc"
	if opts.MaxTargetFrac > 0 && opts.MaxTargetFrac < 1 {
		maxP = int(float64(capacity) * opts.MaxTargetFrac)
	}
	if damping != 1 || maxP != capacity {
		name = "arc-damped"
	}
	return &Policy{
		capacity: capacity,
		damping:  damping,
		maxP:     maxP,
		name:     name,
		idx:      slab.New[listID](2 * capacity),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return p.name }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.t1.Len() + p.t2.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	s := p.idx.Find(key)
	return s != 0 && resident(*p.idx.Value(s))
}

func resident(loc listID) bool { return loc == inT1 || loc == inT2 }

// Target returns the current adaptation target p (|T1|'s target size), for
// tests and the ablation experiments.
func (p *Policy) Target() int { return p.p }

// AccessResident serves r only if its key is resident (in T1 or T2) and
// reports whether it was: Access without the miss path, for wrappers (Quick
// Demotion) that admit elsewhere on a miss.
func (p *Policy) AccessResident(r *trace.Request) bool {
	s := p.idx.Find(r.Key)
	if s == 0 || !resident(*p.idx.Value(s)) {
		return false
	}
	p.hit(s, r)
	return true
}

// hit is Case I: a hit in T1 or T2 moves the object to the MRU end of T2.
func (p *Policy) hit(s int32, r *trace.Request) {
	if loc := p.idx.Value(s); *loc == inT1 {
		*loc = inT2
		p.idx.Unlink(&p.t1, s)
		p.idx.PushFront(&p.t2, s)
	} else {
		p.idx.MoveToFront(&p.t2, s)
	}
	p.Hit(r.Key, r.Time)
}

// Access implements core.Policy (ARC(c) from the FAST'03 paper, Fig. 4).
func (p *Policy) Access(r *trace.Request) bool {
	x := r.Key
	if s := p.idx.Find(x); s != 0 {
		loc := p.idx.Value(s)
		switch *loc {
		case inT1, inT2:
			p.hit(s, r)
			return true
		case inB1: // Case II: ghost hit in B1 → adapt toward recency.
			d := 1
			if p.b1.Len() > 0 && p.b2.Len() > p.b1.Len() {
				d = p.b2.Len() / p.b1.Len()
			}
			d = max(1, d/p.damping)
			p.p = min(p.p+d, p.maxP)
			p.replace(false, r.Time)
			p.idx.Unlink(&p.b1, s)
		case inB2: // Case III: ghost hit in B2 → adapt toward frequency.
			d := 1
			if p.b2.Len() > 0 && p.b1.Len() > p.b2.Len() {
				d = p.b1.Len() / p.b2.Len()
			}
			d = max(1, d/p.damping)
			p.p = max(p.p-d, 0)
			p.replace(true, r.Time)
			p.idx.Unlink(&p.b2, s)
		}
		*loc = inT2
		p.idx.PushFront(&p.t2, s)
		p.Insert(x, r.Time)
		return false
	}
	// Case IV: completely new key.
	l1 := p.t1.Len() + p.b1.Len()
	l2 := p.t2.Len() + p.b2.Len()
	switch {
	case l1 == p.capacity:
		// A: L1 holds exactly c entries.
		if p.t1.Len() < p.capacity {
			// Delete B1 LRU, then REPLACE.
			p.forget(&p.b1)
			p.replace(false, r.Time)
		} else {
			// B1 empty: evict T1 LRU without remembering it.
			p.Evict(p.forget(&p.t1), r.Time)
		}
	case l1 < p.capacity && l1+l2 >= p.capacity:
		// B: directory reached capacity.
		if l1+l2 == 2*p.capacity {
			p.forget(&p.b2)
		}
		p.replace(false, r.Time)
	}
	s := p.idx.Insert(x) // zero value = inT1
	p.idx.PushFront(&p.t1, s)
	p.Insert(x, r.Time)
	return false
}

// forget drops l's LRU entry from the directory and returns its key.
func (p *Policy) forget(l *slab.List) uint64 {
	lru := l.Back()
	key := p.idx.Key(lru)
	p.idx.Remove(l, lru)
	return key
}

// replace implements REPLACE(x, p): demote the T1 LRU to B1 when T1 exceeds
// the target (or exactly meets it on a B2 hit), otherwise demote the T2 LRU
// to B2. The directory entry only changes lists; the table is not touched.
func (p *Policy) replace(xInB2 bool, now int64) {
	from, to, loc := &p.t2, &p.b2, inB2
	if p.t1.Len() >= 1 && ((xInB2 && p.t1.Len() == p.p) || p.t1.Len() > p.p) {
		from, to, loc = &p.t1, &p.b1, inB1
	}
	lru := from.Back()
	if lru == 0 {
		return
	}
	p.idx.Unlink(from, lru)
	*p.idx.Value(lru) = loc
	p.idx.PushFront(to, lru)
	p.Evict(p.idx.Key(lru), now)
}
