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
// The k-bit variant tracks frequency up to 2^k−1; the paper's 2-bit CLOCK
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

// Policy is a k-bit CLOCK cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	maxFreq  uint8
	bits     int
	idx      *slab.Index[uint8] // value = reference counter
	queue    slab.List          // front = oldest (next eviction candidate)
}

// New returns a CLOCK policy with the given capacity and counter width in
// bits (1..6). bits=1 is FIFO-Reinsertion; bits=2 is the paper's 2-bit
// CLOCK.
func New(capacity, bits int) *Policy {
	if bits < 1 || bits > 6 {
		panic(fmt.Sprintf("clock: bits must be in [1,6], got %d", bits))
	}
	return &Policy{
		capacity: capacity,
		maxFreq:  uint8(1<<bits - 1),
		bits:     bits,
		idx:      slab.New[uint8](capacity),
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
	if p.queue.Len() >= p.capacity {
		p.evict(r.Time)
	}
	p.idx.PushBack(&p.queue, p.idx.Insert(r.Key))
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
	if freq := p.idx.Value(s); *freq < p.maxFreq {
		*freq++
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
		if freq := p.idx.Value(hand); *freq > 0 {
			*freq--
			p.idx.MoveToBack(&p.queue, hand) // reinsertion
			continue
		}
		p.drop(hand, now)
		return
	}
}

func (p *Policy) drop(s int32, now int64) {
	key := p.idx.Key(s)
	p.idx.Remove(&p.queue, s)
	p.Evict(key, now)
}
