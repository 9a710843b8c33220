// Package s3fifo implements S3-FIFO (Yang et al., SOSP'23), the
// three-queue FIFO eviction algorithm that grew out of this paper's Quick
// Demotion + Lazy Promotion insight. Included as an extension beyond the
// HotOS paper's own algorithms.
//
// S3-FIFO keeps a small FIFO (10% of the cache) for new objects, a main
// FIFO (90%) with 2-bit lazy promotion, and a ghost FIFO remembering as
// many evicted keys as the main queue holds objects. Objects leave the
// small queue for the main queue only if they were re-referenced more than
// once while probationary; one-hit wonders fall into the ghost instead.
// Main-queue evictions reinsert objects with a decremented counter while it
// is positive — the same lazy promotion as k-bit CLOCK.
package s3fifo

import (
	"repro/internal/core"
	"repro/internal/ghost"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("s3-fifo", func(capacity int) core.Policy { return New(capacity) })
}

const maxFreq = 3

type entry struct {
	freq   uint8
	inMain bool // which of the two queues the slot is on
}

// Policy is an S3-FIFO cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	smallCap int
	idx      *slab.Index[entry]
	small    slab.List // front = oldest
	main     slab.List // front = oldest
	ghost    *ghost.Queue
}

// New returns an S3-FIFO policy with the canonical 10% small queue.
func New(capacity int) *Policy {
	smallCap := capacity / 10
	if smallCap < 1 {
		smallCap = 1
	}
	mainCap := capacity - smallCap
	if mainCap < 1 {
		mainCap = 1
		smallCap = 0
	}
	return &Policy{
		capacity: capacity,
		smallCap: smallCap,
		idx:      slab.New[entry](capacity),
		ghost:    ghost.New(mainCap),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "s3-fifo" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.small.Len() + p.main.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// GhostLen reports the ghost population (for tests).
func (p *Policy) GhostLen() int { return p.ghost.Len() }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		if e := p.idx.Value(s); e.freq < maxFreq {
			e.freq++
		}
		p.Hit(r.Key, r.Time)
		return true
	}
	// A ghost hit is a quick-demotion mistake: readmit directly into the
	// main queue, as does a cache too small to have a small queue.
	if p.ghost.Remove(r.Key) || p.smallCap == 0 {
		p.makeRoomMain(r.Time)
		s := p.idx.Insert(r.Key)
		p.idx.Value(s).inMain = true
		p.idx.PushBack(&p.main, s)
	} else {
		if p.small.Len() >= p.smallCap {
			p.evictSmall(r.Time)
		}
		p.idx.PushBack(&p.small, p.idx.Insert(r.Key))
	}
	p.Insert(r.Key, r.Time)
	return false
}

// evictSmall pops small-queue heads until one is truly evicted: objects
// re-referenced more than once move to the main queue (with frequency
// reset), the first object with freq <= 1 falls into the ghost.
func (p *Policy) evictSmall(now int64) {
	for p.small.Len() > 0 {
		oldest := p.small.Front()
		if p.idx.Value(oldest).freq > 1 {
			p.idx.Unlink(&p.small, oldest)
			p.makeRoomMain(now)
			*p.idx.Value(oldest) = entry{inMain: true}
			p.idx.PushBack(&p.main, oldest)
			continue
		}
		key := p.idx.Key(oldest)
		p.idx.Remove(&p.small, oldest)
		p.ghost.Add(key)
		p.Evict(key, now)
		return
	}
}

// makeRoomMain frees a main-queue slot if needed, reinserting positive-
// frequency objects with a decremented counter (lazy promotion).
func (p *Policy) makeRoomMain(now int64) {
	mainCap := p.capacity - p.smallCap
	for p.main.Len() >= mainCap {
		oldest := p.main.Front()
		if e := p.idx.Value(oldest); e.freq > 0 {
			e.freq--
			p.idx.MoveToBack(&p.main, oldest)
			continue
		}
		key := p.idx.Key(oldest)
		p.idx.Remove(&p.main, oldest)
		p.Evict(key, now)
	}
}
