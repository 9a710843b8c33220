// Package dlist provides a typed doubly-linked list with O(1) insertion,
// removal, and splicing. It is the queue primitive of the simulator policies
// that have not moved to internal/slab yet: sieve, s3fifo, twoq, slru, car,
// lirs, lfu, lecar, cacheus, mglru, lazylru, admit (W-TinyLFU's window) and
// internal/sizeaware. FIFO, LRU, CLOCK, ARC, Quick Demotion and everything
// in internal/concurrent sit on the slab; dlist goes when the rest have.
//
// The implementation mirrors container/list but is generic, so policies
// store typed values without interface boxing on the hot path.
package dlist

// Node is an element of a List. The zero Node is not usable; nodes are
// created by the List insertion methods.
type Node[T any] struct {
	prev, next *Node[T]
	list       *List[T]

	// Value is the payload carried by this node.
	Value T
}

// Next returns the next node in the list, or nil if n is the last node.
func (n *Node[T]) Next() *Node[T] {
	if p := n.next; n.list != nil && p != &n.list.root {
		return p
	}
	return nil
}

// Prev returns the previous node in the list, or nil if n is the first node.
func (n *Node[T]) Prev() *Node[T] {
	if p := n.prev; n.list != nil && p != &n.list.root {
		return p
	}
	return nil
}

// InList reports whether n is currently linked into a list.
func (n *Node[T]) InList() bool { return n.list != nil }

// List is a doubly-linked list with a sentinel root. The zero value is an
// empty list ready to use.
type List[T any] struct {
	root Node[T]
	len  int
}

// New returns an initialized empty list.
func New[T any]() *List[T] {
	l := &List[T]{}
	l.lazyInit()
	return l
}

func (l *List[T]) lazyInit() {
	if l.root.next == nil {
		l.root.next = &l.root
		l.root.prev = &l.root
	}
}

// Len returns the number of nodes in the list. O(1).
func (l *List[T]) Len() int { return l.len }

// Front returns the first node of the list, or nil if the list is empty.
func (l *List[T]) Front() *Node[T] {
	if l.len == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the last node of the list, or nil if the list is empty.
func (l *List[T]) Back() *Node[T] {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// insert links n after at and returns n.
func (l *List[T]) insert(n, at *Node[T]) *Node[T] {
	n.prev = at
	n.next = at.next
	n.prev.next = n
	n.next.prev = n
	n.list = l
	l.len++
	return n
}

// PushFront inserts a new node with value v at the front and returns it.
func (l *List[T]) PushFront(v T) *Node[T] {
	l.lazyInit()
	return l.insert(&Node[T]{Value: v}, &l.root)
}

// PushBack inserts a new node with value v at the back and returns it.
func (l *List[T]) PushBack(v T) *Node[T] {
	l.lazyInit()
	return l.insert(&Node[T]{Value: v}, l.root.prev)
}

// InsertBefore inserts a new node with value v immediately before mark.
// mark must be a node of this list.
func (l *List[T]) InsertBefore(v T, mark *Node[T]) *Node[T] {
	if mark.list != l {
		panic("dlist: InsertBefore mark is not a node of this list")
	}
	return l.insert(&Node[T]{Value: v}, mark.prev)
}

// InsertAfter inserts a new node with value v immediately after mark.
// mark must be a node of this list.
func (l *List[T]) InsertAfter(v T, mark *Node[T]) *Node[T] {
	if mark.list != l {
		panic("dlist: InsertAfter mark is not a node of this list")
	}
	return l.insert(&Node[T]{Value: v}, mark)
}

// Remove unlinks n from the list and returns its value. n must be a node of
// this list.
func (l *List[T]) Remove(n *Node[T]) T {
	if n.list != l {
		panic("dlist: Remove called with node of a different list")
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	n.list = nil
	l.len--
	return n.Value
}

// Unlink removes n from the list without returning its value — the
// companion to PushNodeFront/PushNodeBack for moving nodes between lists
// when T contains atomics and must never be copied.
func (l *List[T]) Unlink(n *Node[T]) {
	if n.list != l {
		panic("dlist: Unlink called with node of a different list")
	}
	l.unlink(n)
	n.prev = nil
	n.next = nil
}

// MoveToFront moves n to the front of the list. n must be a node of this
// list.
func (l *List[T]) MoveToFront(n *Node[T]) {
	if n.list != l {
		panic("dlist: MoveToFront called with node of a different list")
	}
	if l.root.next == n {
		return
	}
	l.unlink(n)
	l.relink(n, &l.root)
}

// MoveToBack moves n to the back of the list. n must be a node of this list.
func (l *List[T]) MoveToBack(n *Node[T]) {
	if n.list != l {
		panic("dlist: MoveToBack called with node of a different list")
	}
	if l.root.prev == n {
		return
	}
	l.unlink(n)
	l.relink(n, l.root.prev)
}

// PushNodeFront links an unattached node n at the front of the list. It is
// used to move nodes between lists without reallocating.
func (l *List[T]) PushNodeFront(n *Node[T]) {
	if n.list != nil {
		panic("dlist: PushNodeFront called with attached node")
	}
	l.lazyInit()
	l.relink(n, &l.root)
}

// PushNodeBack links an unattached node n at the back of the list.
func (l *List[T]) PushNodeBack(n *Node[T]) {
	if n.list != nil {
		panic("dlist: PushNodeBack called with attached node")
	}
	l.lazyInit()
	l.relink(n, l.root.prev)
}

func (l *List[T]) unlink(n *Node[T]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.list = nil
	l.len--
}

func (l *List[T]) relink(n, at *Node[T]) {
	n.prev = at
	n.next = at.next
	n.prev.next = n
	n.next.prev = n
	n.list = l
	l.len++
}

// Do calls f for each value from front to back.
func (l *List[T]) Do(f func(v T)) {
	for n := l.Front(); n != nil; n = n.Next() {
		f(n.Value)
	}
}

// Values returns the values from front to back. Intended for tests and
// debugging.
func (l *List[T]) Values() []T {
	out := make([]T, 0, l.len)
	l.Do(func(v T) { out = append(out, v) })
	return out
}
