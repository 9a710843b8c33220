// Package ghost implements a fixed-capacity metadata-only FIFO queue.
//
// Ghost queues remember keys of recently evicted objects without holding
// their data. The paper's Quick Demotion technique uses one to distinguish
// "new" objects (which must prove themselves in the probationary FIFO) from
// objects that were demoted too quickly and deserve direct admission into
// the main cache. 2Q's A1out and LeCaR's per-expert histories are the same
// structure. (internal/policy/qd itself keeps its ghost in the index that
// holds its probation keys, so a request costs it one probe for both; 2Q,
// S3-FIFO and the size-aware QD-LP-FIFO use this package.)
package ghost

import "repro/internal/slab"

// Queue is a FIFO of keys with O(1) membership checks. Adding a key that is
// already present leaves its queue position unchanged (FIFO semantics, not
// LRU). When full, adding a new key drops the oldest entry. Memory grows
// with the keys held, not with the capacity declared.
//
// The zero Queue is unusable; use New.
type Queue struct {
	capacity int
	idx      *slab.Index[struct{}]
	fifo     slab.List // front = oldest
}

// New returns a ghost queue holding at most capacity keys. A capacity of 0
// yields a queue that never retains anything (Add is a no-op).
func New(capacity int) *Queue {
	if capacity < 0 {
		capacity = 0
	}
	return &Queue{capacity: capacity, idx: slab.New[struct{}](capacity)}
}

// Len returns the number of keys currently remembered.
func (q *Queue) Len() int { return q.fifo.Len() }

// Capacity returns the maximum number of keys remembered.
func (q *Queue) Capacity() int { return q.capacity }

// Contains reports whether key is remembered.
func (q *Queue) Contains(key uint64) bool { return q.idx.Find(key) != 0 }

// Add remembers key. If the queue is full the oldest key is forgotten.
// Re-adding an existing key keeps its original position.
func (q *Queue) Add(key uint64) {
	if q.capacity == 0 || q.idx.Find(key) != 0 {
		return
	}
	if q.fifo.Len() >= q.capacity {
		q.idx.Remove(&q.fifo, q.fifo.Front())
	}
	q.idx.PushBack(&q.fifo, q.idx.Insert(key))
}

// Remove forgets key and reports whether it was present.
func (q *Queue) Remove(key uint64) bool {
	s := q.idx.Find(key)
	if s == 0 {
		return false
	}
	q.idx.Remove(&q.fifo, s)
	return true
}

// Oldest returns the oldest remembered key, or ok=false when empty.
func (q *Queue) Oldest() (key uint64, ok bool) {
	s := q.fifo.Front()
	if s == 0 {
		return 0, false
	}
	return q.idx.Key(s), true
}
