package sizeaware

import (
	"container/heap"

	"repro/internal/trace"
)

// GDSF implements Greedy-Dual-Size-Frequency (Cherkasova, building on Cao
// & Irani's GreedyDual-Size, both in the paper's lineage of size-aware
// web caching). Each object carries priority L + frequency/size, where L
// is the inflation value — the priority of the last evicted object — so
// long-resident objects decay relative to fresh ones. Eviction removes the
// minimum-priority object.
type GDSF struct {
	capacity int64
	used     int64
	inflate  float64
	byKey    map[uint64]*gdsfEntry
	h        gdsfHeap
}

type gdsfEntry struct {
	key      uint64
	size     uint32
	freq     int
	priority float64
	idx      int // heap index, -1 when detached
}

type gdsfHeap []*gdsfEntry

func (h gdsfHeap) Len() int           { return len(h) }
func (h gdsfHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h gdsfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *gdsfHeap) Push(x any)        { e := x.(*gdsfEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *gdsfHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	e.idx = -1
	*h = old[:n-1]
	return e
}

// NewGDSF returns a byte-capacity GDSF cache.
func NewGDSF(capacityBytes int64) *GDSF {
	return &GDSF{capacity: capacityBytes, byKey: make(map[uint64]*gdsfEntry)}
}

// Name implements Policy.
func (p *GDSF) Name() string { return "gdsf" }

// Len implements Policy.
func (p *GDSF) Len() int { return len(p.byKey) }

// UsedBytes implements Policy.
func (p *GDSF) UsedBytes() int64 { return p.used }

// CapacityBytes implements Policy.
func (p *GDSF) CapacityBytes() int64 { return p.capacity }

// Contains implements Policy.
func (p *GDSF) Contains(key uint64) bool {
	_, ok := p.byKey[key]
	return ok
}

func (p *GDSF) priorityOf(freq int, size uint32) float64 {
	return p.inflate + float64(freq)/float64(size)
}

// Access implements Policy.
func (p *GDSF) Access(r *trace.Request) bool {
	if e, ok := p.byKey[r.Key]; ok {
		e.freq++
		e.priority = p.priorityOf(e.freq, e.size)
		heap.Fix(&p.h, e.idx)
		return true
	}
	size := int64(r.Size)
	if size > p.capacity {
		return false
	}
	for p.used+size > p.capacity {
		victim := heap.Pop(&p.h).(*gdsfEntry)
		p.inflate = victim.priority // inflation: future objects outrank the dead
		delete(p.byKey, victim.key)
		p.used -= int64(victim.size)
	}
	e := &gdsfEntry{key: r.Key, size: r.Size, freq: 1}
	e.priority = p.priorityOf(1, r.Size)
	heap.Push(&p.h, e)
	p.byKey[r.Key] = e
	p.used += size
	return false
}
