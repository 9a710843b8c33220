// Package ghost implements fixed-capacity metadata-only FIFO queues.
//
// Ghost queues remember keys of recently evicted objects without holding
// their data. The paper's Quick Demotion technique uses one to distinguish
// "new" objects (which must prove themselves in the probationary FIFO) from
// objects that were demoted too quickly and deserve direct admission into
// the main cache. 2Q's A1out and S3-FIFO's ghost are a Queue; the per-expert
// eviction histories of LeCaR and CACHEUS are a History, the same queue with
// a record per key. (internal/policy/qd itself keeps its ghost in the index
// that holds its probation keys, so a request costs it one probe for both.)
package ghost

import "repro/internal/slab"

// fifo is the bounded keyed FIFO under Queue and History. Adding a key that
// is already present leaves its queue position unchanged (FIFO semantics,
// not LRU). When full, adding a new key drops the oldest entry. Memory grows
// with the keys held, not with the capacity declared.
type fifo[T any] struct {
	capacity int
	idx      *slab.Index[T]
	list     slab.List // front = oldest
}

func newFIFO[T any](capacity int) fifo[T] {
	capacity = max(capacity, 0)
	return fifo[T]{capacity: capacity, idx: slab.New[T](capacity)}
}

// Len returns the number of keys currently remembered.
func (q *fifo[T]) Len() int { return q.list.Len() }

// Capacity returns the maximum number of keys remembered.
func (q *fifo[T]) Capacity() int { return q.capacity }

// Contains reports whether key is remembered.
func (q *fifo[T]) Contains(key uint64) bool { return q.idx.Find(key) != 0 }

// add remembers key, forgetting the oldest key when the queue is full, and
// returns key's value; nil at capacity 0, where nothing is retained.
func (q *fifo[T]) add(key uint64) *T {
	if q.capacity == 0 {
		return nil
	}
	s := q.idx.Find(key)
	if s == 0 {
		if q.list.Len() >= q.capacity {
			q.idx.Remove(&q.list, q.list.Front())
		}
		s = q.idx.Insert(key)
		q.idx.PushBack(&q.list, s)
	}
	return q.idx.Value(s)
}

// take forgets key and returns the value it held.
func (q *fifo[T]) take(key uint64) (v T, ok bool) {
	s := q.idx.Find(key)
	if s == 0 {
		return v, false
	}
	v = *q.idx.Value(s)
	q.idx.Remove(&q.list, s)
	return v, true
}

// Queue is a FIFO of keys with O(1) membership checks. The zero Queue is
// unusable; use New.
type Queue struct{ fifo[struct{}] }

// New returns a ghost queue holding at most capacity keys. A capacity of 0
// yields a queue that never retains anything (Add is a no-op).
func New(capacity int) *Queue { return &Queue{newFIFO[struct{}](capacity)} }

// Add remembers key. If the queue is full the oldest key is forgotten.
// Re-adding an existing key keeps its original position.
func (q *Queue) Add(key uint64) { q.add(key) }

// Remove forgets key and reports whether it was present.
func (q *Queue) Remove(key uint64) bool {
	_, ok := q.take(key)
	return ok
}

// Record is what a History remembers of an eviction.
type Record struct {
	Freq    int   // frequency at eviction time, restored on readmission
	EvictAt int64 // when the object was evicted
}

// History is a ghost queue that keeps a Record per key: the eviction
// history of one expert of LeCaR or CACHEUS. The zero History is unusable;
// use NewHistory.
type History struct{ fifo[Record] }

// NewHistory returns a history of at most capacity evictions.
func NewHistory(capacity int) *History { return &History{newFIFO[Record](capacity)} }

// Add records key's eviction. A key already remembered keeps its position
// and takes the new record.
func (h *History) Add(key uint64, freq int, now int64) {
	if r := h.add(key); r != nil {
		*r = Record{Freq: freq, EvictAt: now}
	}
}

// Take forgets key and returns its record, ok=false when it had none.
func (h *History) Take(key uint64) (Record, bool) { return h.take(key) }
