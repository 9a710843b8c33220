package trace

import "math/bits"

// keyTable maps uint64 keys to values of type V for the passes that count
// or index a trace's keys: UniqueObjects (V = struct{}, so a slot is just
// its key), Annotate (the next index) and ComputeStats (a count). It is an
// open-addressed table with linear probing over one array of key/value
// slots, at most three quarters full, so a lookup is one multiply and, most
// of the time, one cache line. An empty slot holds key 0, so key 0 itself
// lives outside the array.
type keyTable[V any] struct {
	slots   []keySlot[V] // a power of two long
	shift   uint         // 64 - log2(len(slots)): a key's home slot is its hash's top bits
	n       int          // keys in slots
	zeroVal V            // key 0's value, if hasZero
	hasZero bool
}

type keySlot[V any] struct {
	key uint64
	val V
}

// newKeyTable returns an empty table that holds hint keys before it grows.
func newKeyTable[V any](hint int) *keyTable[V] {
	t := &keyTable[V]{}
	t.alloc(max(hint*4/3+1, 16))
	return t
}

// alloc replaces the slots with at least size empty ones.
func (t *keyTable[V]) alloc(size int) {
	lg := bits.Len(uint(size - 1))
	t.slots = make([]keySlot[V], 1<<lg)
	t.shift = uint(64 - lg)
}

func (t *keyTable[V]) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// ref returns key's value slot, adding key with the zero value if it is
// absent; added reports whether it was. The pointer is good until the next
// ref.
func (t *keyTable[V]) ref(key uint64) (val *V, added bool) {
	if key == 0 {
		added = !t.hasZero
		t.hasZero = true
		return &t.zeroVal, added
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return &s.val, false
		}
		if s.key == 0 {
			if 4*(t.n+1) > 3*len(t.slots) {
				t.grow()
				return t.ref(key)
			}
			t.n++
			s.key = key
			return &s.val, true
		}
	}
}

// grow doubles the slots and re-inserts every key.
func (t *keyTable[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// len returns the number of keys held.
func (t *keyTable[V]) len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// values calls fn with the value of every key held, in no set order.
func (t *keyTable[V]) values(fn func(val V)) {
	if t.hasZero {
		fn(t.zeroVal)
	}
	for _, s := range t.slots {
		if s.key != 0 {
			fn(s.val)
		}
	}
}
