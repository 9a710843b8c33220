// Package lazylru implements the reduced-promotion LRU variants surveyed
// in §5 of the paper: "several other techniques are often used to reduce
// promotion and improve scalability, e.g., periodic promotion, batched
// promotion, promoting old objects only". They do not meet the paper's
// strict definition of Lazy Promotion (promotion at eviction time), but
// they retain popular objects while cutting the per-hit metadata work —
// the production compromises found in memcached, FrozenHot, and CacheLib.
//
// Three modes:
//
//   - Periodic: promote a hit object only if its last promotion is more
//     than an age threshold in the past (memcached's "60-second rule").
//   - OldOnly: promote only objects in the older half of the queue
//     (CacheLib's approach, approximated by insertion sequence numbers).
//   - Batched: record hit keys in a buffer and apply all promotions every
//     B hits (amortizing lock acquisitions in a real implementation).
package lazylru

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("lru-periodic", func(capacity int) core.Policy {
		return New(capacity, Periodic)
	})
	core.Register("lru-oldonly", func(capacity int) core.Policy {
		return New(capacity, OldOnly)
	})
	core.Register("lru-batched", func(capacity int) core.Policy {
		return New(capacity, Batched)
	})
}

// Mode selects the promotion-reduction technique.
type Mode uint8

const (
	// Periodic promotes at most once per threshold interval per object.
	Periodic Mode = iota
	// OldOnly promotes only objects older than half the queue.
	OldOnly
	// Batched queues promotions and applies them in batches.
	Batched
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Periodic:
		return "periodic"
	case OldOnly:
		return "oldonly"
	case Batched:
		return "batched"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

type entry struct {
	lastPromoted int64 // Periodic: time of last promotion
	enqueuedAt   int64 // OldOnly: sequence number at (re)insertion
}

// Policy is a reduced-promotion LRU. Not safe for concurrent use (the
// batching benefit shows in the concurrent setting; here we model its
// miss-ratio effect).
type Policy struct {
	policyutil.EventEmitter
	mode     Mode
	capacity int
	idx      *slab.Index[entry]
	queue    slab.List // front = MRU

	seq       int64 // insertion/promotion sequence counter
	threshold int64 // Periodic: minimum age between promotions
	batch     []uint64
	batchSize int
}

// New returns a reduced-promotion LRU of the given mode. The periodic
// threshold and batch size default to capacity/4 accesses and 64 hits.
func New(capacity int, mode Mode) *Policy {
	th := int64(capacity / 4)
	if th < 1 {
		th = 1
	}
	return &Policy{
		mode:      mode,
		capacity:  capacity,
		idx:       slab.New[entry](capacity),
		threshold: th,
		batchSize: 64,
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lru-" + p.mode.String() }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.queue.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	p.seq++
	if s := p.idx.Find(r.Key); s != 0 {
		p.Hit(r.Key, r.Time)
		e := p.idx.Value(s)
		switch p.mode {
		case Periodic:
			if p.seq-e.lastPromoted >= p.threshold {
				e.lastPromoted = p.seq
				p.idx.MoveToFront(&p.queue, s)
			}
		case OldOnly:
			// Older than roughly half the queue: promote; fresh objects
			// keep their position (their recency is already high).
			if p.seq-e.enqueuedAt >= int64(p.capacity/2) {
				e.enqueuedAt = p.seq
				p.idx.MoveToFront(&p.queue, s)
			}
		case Batched:
			p.batch = append(p.batch, r.Key)
			if len(p.batch) >= p.batchSize {
				p.applyBatch()
			}
		}
		return true
	}
	if p.queue.Len() >= p.capacity {
		victim := p.queue.Back()
		key := p.idx.Key(victim)
		p.idx.Remove(&p.queue, victim)
		p.Evict(key, r.Time)
	}
	s := p.idx.Insert(r.Key)
	*p.idx.Value(s) = entry{lastPromoted: p.seq, enqueuedAt: p.seq}
	p.idx.PushFront(&p.queue, s)
	p.Insert(r.Key, r.Time)
	return false
}

// applyBatch promotes the buffered hit keys in order (duplicates collapse
// to the last occurrence, matching a batched-promotion implementation that
// replays its log).
func (p *Policy) applyBatch() {
	for _, k := range p.batch {
		if s := p.idx.Find(k); s != 0 {
			p.idx.Value(s).lastPromoted = p.seq
			p.idx.MoveToFront(&p.queue, s)
		}
	}
	p.batch = p.batch[:0]
}
