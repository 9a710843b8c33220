// Package gdsf implements Greedy-Dual-Size-Frequency (Cherkasova, building
// on Cao & Irani's GreedyDual-Size, both in the paper's lineage of size-aware
// web caching), the size-aware baseline the byte-capped clock, lru and qd
// policies are compared against.
//
// Each object carries priority L + frequency/size, where L is the inflation
// value — the priority of the last evicted object — so long-resident objects
// decay relative to fresh ones. Eviction removes the minimum-priority object.
//
// GDSF is defined by object sizes, so it has only a byte-capped constructor
// and is not in the core registry, whose capacities count objects.
package gdsf

import (
	"container/heap"

	"repro/internal/trace"
)

// Policy is a byte-capacity GDSF cache. Not safe for concurrent use.
type Policy struct {
	capacity int
	used     int
	inflate  float64
	byKey    map[uint64]*entry
	h        entryHeap
}

type entry struct {
	key      uint64
	size     uint32
	freq     int
	priority float64
	idx      int // heap index, -1 when detached
}

type entryHeap []*entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *entryHeap) Push(x any)        { e := x.(*entry); e.idx = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	e.idx = -1
	*h = old[:n-1]
	return e
}

// NewBytes returns a GDSF policy with the given capacity in bytes: an object
// is charged its Request.Size, and one larger than the cache is never
// admitted.
func NewBytes(capacity int) *Policy {
	return &Policy{capacity: capacity, byKey: make(map[uint64]*entry)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "gdsf" }

// Len implements core.Policy.
func (p *Policy) Len() int { return len(p.byKey) }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Used returns the total size of the resident objects.
func (p *Policy) Used() int { return p.used }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	_, ok := p.byKey[key]
	return ok
}

func (p *Policy) priorityOf(freq int, size uint32) float64 {
	return p.inflate + float64(freq)/float64(size)
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if e, ok := p.byKey[r.Key]; ok {
		e.freq++
		e.priority = p.priorityOf(e.freq, e.size)
		heap.Fix(&p.h, e.idx)
		return true
	}
	size := int(r.Size)
	if size > p.capacity {
		return false
	}
	for p.used+size > p.capacity {
		victim := heap.Pop(&p.h).(*entry)
		p.inflate = victim.priority // inflation: future objects outrank the dead
		delete(p.byKey, victim.key)
		p.used -= int(victim.size)
	}
	e := &entry{key: r.Key, size: r.Size, freq: 1}
	e.priority = p.priorityOf(1, r.Size)
	heap.Push(&p.h, e)
	p.byKey[r.Key] = e
	p.used += size
	return false
}
