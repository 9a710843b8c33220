// Package clock implements FIFO-Reinsertion and its k-bit generalization.
//
// FIFO-Reinsertion, 1-bit CLOCK, and Second Chance are different
// implementations of the same algorithm (paper, footnote 1): a FIFO queue
// where each object carries a reference counter; a hit sets/increments the
// counter (the only metadata write on the hit path — no locking, no pointer
// surgery), and at eviction time the oldest object is reinserted with a
// decremented counter instead of evicted while its counter is non-zero.
// This is the paper's canonical example of Lazy Promotion.
//
// The k-bit variant tracks frequency up to 2^k−1 (at k=0 nothing is ever
// reinserted and the queue is plain FIFO); the paper's 2-bit CLOCK
// tracks frequency up to three and converts the social-network workloads
// that favour LRU over FIFO-Reinsertion into wins for LP-FIFO (§3).
package clock

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("fifo-reinsertion", func(capacity int) core.Policy { return New(capacity, 1) })
	core.Register("clock", func(capacity int) core.Policy { return New(capacity, 1) })
	core.Register("clock-2bit", func(capacity int) core.Policy { return New(capacity, 2) })
	core.Register("clock-3bit", func(capacity int) core.Policy { return New(capacity, 3) })
}

type entry struct {
	freq uint8  // reference counter
	cost uint32 // what the object was charged
}

// Policy is a k-bit CLOCK cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int  // in cost units: objects, or bytes under a byte cap
	used     int  // cost of the resident objects
	byBytes  bool // an object costs its Size rather than 1
	maxFreq  uint8
	bits     int
	idx      *slab.Index[entry]
	queue    slab.List // front = oldest (next eviction candidate)
}

// New returns a CLOCK policy with the given capacity in objects and counter
// width in bits (0..6). bits=0 never reinserts and so is plain FIFO; bits=1
// is FIFO-Reinsertion; bits=2 is the paper's 2-bit CLOCK.
func New(capacity, bits int) *Policy { return build(capacity, bits, false) }

// NewBytes returns a CLOCK policy with the given capacity in bytes: an entry
// cap is a byte cap at cost 1, so the one difference from New is that an
// object is charged its Request.Size. One larger than the cache is never
// admitted. Reinsertion is unchanged by object size — a requested object
// earns a second traversal whatever its footprint, so large cold objects
// leave as fast as small ones.
func NewBytes(capacity, bits int) *Policy { return build(capacity, bits, true) }

func build(capacity, bits int, byBytes bool) *Policy {
	if bits < 0 || bits > 6 {
		panic(fmt.Sprintf("clock: bits must be in [0,6], got %d", bits))
	}
	bound := capacity
	if byBytes {
		bound = policyutil.Unbounded
	}
	return &Policy{
		capacity: capacity,
		byBytes:  byBytes,
		maxFreq:  uint8(1<<bits - 1),
		bits:     bits,
		idx:      slab.New[entry](bound),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.bits == 1 {
		return "fifo-reinsertion"
	}
	return fmt.Sprintf("clock-%dbit", p.bits)
}

// Len implements core.Policy.
func (p *Policy) Len() int { return p.queue.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Used returns the cost of the resident objects: their number, or under a
// byte cap their total size.
func (p *Policy) Used() int { return p.used }

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
	if p.AccessResident(r) {
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
		p.evict(r.Time)
	}
	s := p.idx.Insert(r.Key)
	p.idx.Value(s).cost = uint32(cost)
	p.idx.PushBack(&p.queue, s)
	p.used += cost
	p.Insert(r.Key, r.Time)
	return false
}

// AccessResident serves r only if its key is resident and reports whether
// it was: Access without the miss path, for wrappers (Quick Demotion) that
// admit elsewhere on a miss.
func (p *Policy) AccessResident(r *trace.Request) bool {
	s := p.idx.Find(r.Key)
	if s == 0 {
		return false
	}
	// Lazy promotion: only the counter is touched; the object's queue
	// position is unchanged until eviction time.
	if e := p.idx.Value(s); e.freq < p.maxFreq {
		e.freq++
	}
	p.Hit(r.Key, r.Time)
	return true
}

// evict advances the clock hand: requested-since-insertion objects are
// reinserted with a decremented counter; the first zero-counter object is
// evicted. Terminates because every pass decrements a counter.
func (p *Policy) evict(now int64) {
	for {
		hand := p.queue.Front()
		if e := p.idx.Value(hand); e.freq > 0 {
			e.freq--
			p.idx.MoveToBack(&p.queue, hand) // reinsertion
			continue
		}
		p.drop(hand, now)
		return
	}
}

func (p *Policy) drop(s int32, now int64) {
	key := p.idx.Key(s)
	p.used -= int(p.idx.Value(s).cost)
	p.idx.Remove(&p.queue, s)
	p.Evict(key, now)
}
