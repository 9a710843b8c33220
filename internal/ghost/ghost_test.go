package ghost

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	q := New(3)
	if q.Capacity() != 3 || q.Len() != 0 {
		t.Fatalf("fresh queue: cap=%d len=%d", q.Capacity(), q.Len())
	}
	q.Add(1)
	q.Add(2)
	q.Add(3)
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	for _, k := range []uint64{1, 2, 3} {
		if !q.Contains(k) {
			t.Fatalf("missing key %d", k)
		}
	}
	// Adding a fourth drops the oldest (1).
	q.Add(4)
	if q.Contains(1) {
		t.Fatal("oldest key not dropped")
	}
	if !q.Contains(2) || !q.Contains(3) || !q.Contains(4) {
		t.Fatal("wrong keys dropped")
	}
}

func TestReAddKeepsPosition(t *testing.T) {
	q := New(2)
	q.Add(1)
	q.Add(2)
	q.Add(1) // no-op: FIFO semantics
	q.Add(3) // should evict 1, not 2
	if q.Contains(1) {
		t.Fatal("re-added key was refreshed; ghost must be FIFO")
	}
	if !q.Contains(2) || !q.Contains(3) {
		t.Fatal("wrong contents after re-add")
	}
}

func TestRemove(t *testing.T) {
	q := New(2)
	q.Add(1)
	if !q.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if q.Remove(1) {
		t.Fatal("double Remove(1) = true")
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after removal", q.Len())
	}
}

// A History is the same FIFO with a record per key: re-adding keeps the
// position and takes the new record, Take forgets.
func TestHistory(t *testing.T) {
	h := NewHistory(2)
	h.Add(1, 3, 10)
	h.Add(2, 1, 11)
	h.Add(1, 5, 12) // same position, new record
	h.Add(3, 1, 13) // full: drops 1, the oldest
	if _, ok := h.Take(1); ok {
		t.Fatal("re-added key was refreshed; a history is FIFO")
	}
	if r, ok := h.Take(2); !ok || r != (Record{Freq: 1, EvictAt: 11}) {
		t.Fatalf("Take(2) = %+v, %v", r, ok)
	}
	if _, ok := h.Take(2); ok || h.Len() != 1 {
		t.Fatalf("Take did not forget: len %d", h.Len())
	}
	h.Add(3, 7, 14)
	if r, _ := h.Take(3); r != (Record{Freq: 7, EvictAt: 14}) {
		t.Fatalf("re-added key kept its old record: %+v", r)
	}
	zero := NewHistory(0)
	zero.Add(1, 1, 1)
	if _, ok := zero.Take(1); ok {
		t.Fatal("capacity 0 history retained a key")
	}
}

func TestZeroCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		q := New(c)
		q.Add(1)
		if q.Len() != 0 || q.Contains(1) {
			t.Fatalf("capacity %d queue retained a key", c)
		}
	}
}

// Property: Len never exceeds capacity and Contains matches a model map
// under arbitrary Add/Remove sequences.
func TestQuickModel(t *testing.T) {
	err := quick.Check(func(seed int64, ops uint8, capacity uint8) bool {
		capN := int(capacity%8) + 1
		q := New(capN)
		rng := rand.New(rand.NewSource(seed))
		var order []uint64
		member := map[uint64]bool{}
		for i := 0; i < int(ops); i++ {
			k := uint64(rng.Intn(12))
			if rng.Intn(3) == 0 {
				q.Remove(k)
				if member[k] {
					delete(member, k)
					order = del(order, k)
				}
			} else {
				q.Add(k)
				if !member[k] {
					if len(order) >= capN {
						delete(member, order[0])
						order = order[1:]
					}
					member[k] = true
					order = append(order, k)
				}
			}
			if q.Len() > capN || q.Len() != len(order) {
				return false
			}
			for j := uint64(0); j < 12; j++ {
				if q.Contains(j) != member[j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func del(s []uint64, v uint64) []uint64 {
	out := s[:0:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
