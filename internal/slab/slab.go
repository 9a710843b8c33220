// Package slab is the keyed queue primitive under the simulator's policies,
// the ghost queues and internal/concurrent: a bounded open-addressed table
// from uint64 keys to int32 slots of one node slab, whose nodes carry int32
// prev/next links so that any number of list heads (FIFO's one queue; ARC's
// T1/T2/B1/B2; Quick Demotion's probation and ghost; MGLRU's generations) can
// be threaded through the same slab.
//
// A lookup is one multiplicative hash and a linear probe over 16-byte cells,
// an insertion takes a slot from the free list, and moving a slot between
// lists (ARC's T1→B1, QD's probation→ghost) never touches the table.
// Deletion shifts the following cluster back instead of leaving a tombstone,
// so ghost churn does not degrade probes. Table and slab start small and
// grow by doubling, up to what the bound needs and never past it: a policy
// at steady state allocates nothing per access, and a generous bound costs
// nothing until it is used.
//
// A slot is on at most one list at a time, and the Index does not record
// which: a policy with several lists keeps a tag in the slot's value. A key
// that must be on two lists at once (LIRS's stack and one of its queues;
// LeCaR's recency list and a frequency bucket) gets a second Index over the
// same keys, one per membership, rather than a second pair of links here.
//
// Slot 0 is the nil slot: Find returns it for an absent key, and the zero
// List is empty. An Index is not safe for concurrent use.
package slab

import "math/bits"

const (
	phi      = 0x9E3779B97F4A7C15 // 2^64 / golden ratio: multiplicative hashing
	minCells = 8
)

type cell struct {
	key uint64
	ref int32 // slot of the key's node; 0 marks an empty cell
}

type node[T any] struct {
	key        uint64
	prev, next int32 // list links; next also threads the free list
	value      T
}

// Index maps keys to slots and holds each slot's key, value and list links.
type Index[T any] struct {
	cells []cell // power-of-two length, at most half full
	shift uint   // 64 − log2(len(cells))
	nodes []node[T]
	free  int32 // head of the free-slot list, 0 when empty
	n     int
	bound int
}

// List is a doubly-linked list of slots of one Index. The zero List is
// empty. A slot is on at most one list at a time; the Index does not record
// which, so callers with several lists keep that in the slot's value.
type List struct {
	head, tail int32
	n          int
}

// Len returns the number of slots on the list.
func (l *List) Len() int { return l.n }

// Front returns the first slot, 0 when the list is empty.
func (l *List) Front() int32 { return l.head }

// Back returns the last slot, 0 when the list is empty.
func (l *List) Back() int32 { return l.tail }

// New returns an index that holds at most bound keys.
func New[T any](bound int) *Index[T] {
	if bound < 0 || bound >= 1<<30 {
		panic("slab: bound out of range")
	}
	return &Index[T]{
		cells: make([]cell, minCells),
		shift: 64 - uint(bits.TrailingZeros(minCells)),
		nodes: make([]node[T], 1, min(bound, minCells)+1),
		bound: bound,
	}
}

// Len returns the number of keys held.
func (x *Index[T]) Len() int { return x.n }

// Find returns key's slot, or 0 when the key is absent.
func (x *Index[T]) Find(key uint64) int32 {
	mask := uint(len(x.cells) - 1)
	for i := uint(key * phi >> x.shift); ; i++ {
		c := &x.cells[i&mask]
		if c.key == key || c.ref == 0 {
			// An empty cell holds ref 0 whatever key is asked for.
			return c.ref
		}
	}
}

// Insert adds key, which must be absent, and returns its slot: zero value,
// on no list until the caller pushes it onto one. It panics when the index already holds bound keys.
func (x *Index[T]) Insert(key uint64) int32 {
	if x.n >= x.bound {
		panic("slab: Insert past the bound")
	}
	if 2*(x.n+1) > len(x.cells) {
		x.rehash(2 * len(x.cells))
	}
	mask := uint(len(x.cells) - 1)
	i := uint(key * phi >> x.shift)
	for ; x.cells[i&mask].ref != 0; i++ {
		if x.cells[i&mask].key == key {
			panic("slab: Insert of a key already present")
		}
	}
	slot := x.free
	if slot != 0 {
		x.free = x.nodes[slot].next
	} else {
		if len(x.nodes) == cap(x.nodes) {
			grown := make([]node[T], len(x.nodes), min(2*cap(x.nodes), x.bound+1))
			copy(grown, x.nodes)
			x.nodes = grown
		}
		slot = int32(len(x.nodes))
		x.nodes = x.nodes[:slot+1]
	}
	x.nodes[slot] = node[T]{key: key}
	x.cells[i&mask] = cell{key: key, ref: slot}
	x.n++
	return slot
}

// Remove takes slot, which must be on l, off the list, drops its key and
// frees the slot.
func (x *Index[T]) Remove(l *List, slot int32) {
	x.Unlink(l, slot)
	mask := uint(len(x.cells) - 1)
	i := uint(x.nodes[slot].key * phi >> x.shift)
	for x.cells[i&mask].ref != slot {
		i++
	}
	// Backward shift: close the gap with every later cell of the cluster
	// whose home is at or before it, so that no probe sequence is broken
	// and no tombstone is left.
	for j := i + 1; ; j++ {
		c := x.cells[j&mask]
		if c.ref == 0 {
			break
		}
		home := uint(c.key * phi >> x.shift)
		if (j-home)&mask >= (j-i)&mask {
			x.cells[i&mask] = c
			i = j
		}
	}
	x.cells[i&mask] = cell{}
	x.nodes[slot].next = x.free
	x.free = slot
	x.n--
}

func (x *Index[T]) rehash(size int) {
	old := x.cells
	x.cells = make([]cell, size)
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := uint(size - 1)
	for _, c := range old {
		if c.ref == 0 {
			continue
		}
		i := uint(c.key * phi >> x.shift)
		for x.cells[i&mask].ref != 0 {
			i++
		}
		x.cells[i&mask] = c
	}
}

// Key returns the key held in slot.
func (x *Index[T]) Key(slot int32) uint64 { return x.nodes[slot].key }

// Value returns a pointer to slot's value, valid until the next Insert.
func (x *Index[T]) Value(slot int32) *T { return &x.nodes[slot].value }

// Prev returns the slot before slot on its list, 0 when slot is the front.
func (x *Index[T]) Prev(slot int32) int32 { return x.nodes[slot].prev }

// Next returns the slot after slot on its list, 0 when slot is the back.
func (x *Index[T]) Next(slot int32) int32 { return x.nodes[slot].next }

// PushFront links slot, which must be on no list, at the front of l.
func (x *Index[T]) PushFront(l *List, slot int32) {
	n := &x.nodes[slot]
	n.prev, n.next = 0, l.head
	if l.head != 0 {
		x.nodes[l.head].prev = slot
	} else {
		l.tail = slot
	}
	l.head = slot
	l.n++
}

// PushBack links slot, which must be on no list, at the back of l.
func (x *Index[T]) PushBack(l *List, slot int32) {
	n := &x.nodes[slot]
	n.prev, n.next = l.tail, 0
	if l.tail != 0 {
		x.nodes[l.tail].next = slot
	} else {
		l.head = slot
	}
	l.tail = slot
	l.n++
}

// Unlink takes slot, which must be on l, off the list and keeps its key: the
// slot is then pushed onto another list.
func (x *Index[T]) Unlink(l *List, slot int32) {
	n := &x.nodes[slot]
	if n.prev != 0 {
		x.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != 0 {
		x.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = 0, 0
	l.n--
}

// MoveToFront moves slot, which must be on l, to the front.
func (x *Index[T]) MoveToFront(l *List, slot int32) {
	if l.head != slot {
		x.Unlink(l, slot)
		x.PushFront(l, slot)
	}
}

// MoveToBack moves slot, which must be on l, to the back.
func (x *Index[T]) MoveToBack(l *List, slot int32) {
	if l.tail != slot {
		x.Unlink(l, slot)
		x.PushBack(l, slot)
	}
}
