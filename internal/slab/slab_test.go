package slab

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the reference: each slab list as a plain slice of keys, front
// first, and a Go map from key to the list it is on.
type model struct {
	on    map[uint64]int // which list the key is on
	lists [][]uint64
}

func (m *model) push(key uint64, l int, front bool) {
	if front {
		m.lists[l] = slices.Insert(m.lists[l], 0, key)
	} else {
		m.lists[l] = append(m.lists[l], key)
	}
	m.on[key] = l
}

func (m *model) remove(key uint64) {
	l := m.on[key]
	i := slices.Index(m.lists[l], key)
	m.lists[l] = slices.Delete(m.lists[l], i, i+1)
	delete(m.on, key)
}

type harness struct {
	t     *testing.T
	x     *Index[uint64]
	lists []List
	m     model
	keys  []uint64 // live keys, for picking one at random
}

func newHarness(t *testing.T, bound, lists int) *harness {
	h := &harness{t: t, x: New[uint64](bound), lists: make([]List, lists)}
	h.m = model{on: map[uint64]int{}, lists: make([][]uint64, lists)}
	return h
}

func (h *harness) insert(key uint64, l int, front bool) {
	s := h.x.Insert(key)
	*h.x.Value(s) = ^key
	if front {
		h.x.PushFront(&h.lists[l], s)
	} else {
		h.x.PushBack(&h.lists[l], s)
	}
	h.m.push(key, l, front)
	h.keys = append(h.keys, key)
}

func (h *harness) remove(i int) {
	key := h.keys[i]
	h.keys[i] = h.keys[len(h.keys)-1]
	h.keys = h.keys[:len(h.keys)-1]
	h.x.Remove(&h.lists[h.m.on[key]], h.x.Find(key))
	h.m.remove(key)
}

func (h *harness) check() {
	h.t.Helper()
	if h.x.Len() != len(h.m.on) {
		h.t.Fatalf("Len %d, model %d", h.x.Len(), len(h.m.on))
	}
	for key := range h.m.on {
		s := h.x.Find(key)
		if s == 0 || h.x.Key(s) != key || *h.x.Value(s) != ^key {
			h.t.Fatalf("key %d: slot %d holds key %d value %d", key, s, h.x.Key(s), *h.x.Value(s))
		}
	}
	for i := range h.lists {
		l, ml := &h.lists[i], h.m.lists[i]
		if l.Len() != len(ml) {
			h.t.Fatalf("list %d: Len %d, model %d", i, l.Len(), len(ml))
		}
		// Forward through Next, then backward through Prev: the walks a
		// sweep's hand makes over a list it does not reorder.
		s, prev := l.Front(), int32(0)
		for _, key := range ml {
			if s == 0 || h.x.Key(s) != key || h.x.Prev(s) != prev {
				h.t.Fatalf("list %d: slot %d (key %d, prev %d) where the model has key %d after slot %d",
					i, s, h.x.Key(s), h.x.Prev(s), key, prev)
			}
			s, prev = h.x.Next(s), s
		}
		if s != 0 || l.Back() != prev {
			h.t.Fatalf("list %d: ends at slot %d with Back %d, model ends after slot %d", i, s, l.Back(), prev)
		}
		s = l.Back()
		for j := len(ml) - 1; j >= 0; j-- {
			if s == 0 || h.x.Key(s) != ml[j] {
				h.t.Fatalf("list %d backward: slot %d (key %d) where the model has key %d", i, s, h.x.Key(s), ml[j])
			}
			s = h.x.Prev(s)
		}
		if s != 0 {
			h.t.Fatalf("list %d backward: slot %d before the model's front", i, s)
		}
	}
}

// TestAgainstModel drives the index and the reference with one seeded random
// op mix. The key space is a few times the bound, so absent keys are asked
// for, deleted keys come back, and the index sits at its bound much of the
// time; small bounds keep the table at 8–64 cells, so clusters wrap around
// its end constantly.
func TestAgainstModel(t *testing.T) {
	for _, bound := range []int{1, 3, 4, 29, 200} {
		rng := rand.New(rand.NewSource(int64(bound)))
		h := newHarness(t, bound, 3)
		for op := 0; op < 20000; op++ {
			key := uint64(rng.Intn(4*bound)) * 0x10001
			l := rng.Intn(len(h.lists))
			_, present := h.m.on[key]
			switch r := rng.Intn(10); {
			case r < 4 && !present:
				if len(h.keys) == bound {
					h.remove(rng.Intn(len(h.keys)))
				}
				h.insert(key, l, rng.Intn(2) == 0)
			case r < 6 && len(h.keys) > 0:
				h.remove(rng.Intn(len(h.keys)))
			case r < 8 && present:
				s, on := h.x.Find(key), h.m.on[key]
				front := rng.Intn(2) == 0
				if front {
					h.x.MoveToFront(&h.lists[on], s)
				} else {
					h.x.MoveToBack(&h.lists[on], s)
				}
				h.m.remove(key)
				h.m.push(key, on, front)
			case present: // to another list, the table untouched
				s, on := h.x.Find(key), h.m.on[key]
				h.x.Unlink(&h.lists[on], s)
				h.x.PushFront(&h.lists[l], s)
				h.m.remove(key)
				h.m.push(key, l, true)
			default:
				if h.x.Find(key) != 0 {
					t.Fatalf("absent key %d found", key)
				}
			}
			if op%64 == 0 || bound <= 4 {
				h.check()
			}
		}
		h.check()
	}
}

// keysWithHome returns n keys whose home cell in x's current table is home.
func keysWithHome(x *Index[uint64], home uint, n int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if uint(fingerprint(k)>>x.shift) == home {
			out = append(out, k)
		}
	}
	return out
}

// TestBackwardShiftAcrossWrap builds one cluster that runs off the end of
// the table and continues at cell 0, and deletes from it in every order: the
// keys left must stay findable, and the keys shifted back over the wrap must
// land where a probe from their home reaches them.
func TestBackwardShiftAcrossWrap(t *testing.T) {
	probe := New[uint64](8) // 8 keys at most a quarter fill 32 cells
	for i := 0; i < 5; i++ {
		probe.Insert(uint64(1000 + i)) // grow to 32 cells
	}
	last := uint(len(probe.cells) - 1)
	if last != 31 {
		t.Fatalf("table has %d cells, the test expects 32", last+1)
	}
	cluster := append(keysWithHome(probe, last-1, 2), keysWithHome(probe, last, 3)...)
	cluster = append(cluster, keysWithHome(probe, 0, 2)...) // cells 30,31 | 31→0,1,2 | 0→3,4
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		h := newHarness(t, 8, 1)
		for i := 0; i < 5; i++ {
			h.insert(uint64(1000+i), 0, false)
		}
		for len(h.keys) > 0 {
			h.remove(0)
		}
		for _, i := range rng.Perm(len(cluster)) {
			h.insert(cluster[i], 0, false)
		}
		if len(h.x.cells) != 32 {
			t.Fatalf("table has %d cells", len(h.x.cells))
		}
		if h.x.cells[0].ref == 0 || h.x.cells[31].ref == 0 {
			t.Fatal("the cluster does not span the wrap")
		}
		for len(h.keys) > 0 {
			h.remove(rng.Intn(len(h.keys)))
			h.check()
		}
		for _, c := range h.x.cells {
			if c.ref != 0 {
				t.Fatalf("cell left behind: %+v", c)
			}
		}
	}
}

// TestFingerprintCollision: keys h*phi⁻¹ hash to h, so keys whose h share
// the high 32 bits share a home and a fingerprint, and only the node's key
// tells them apart.
func TestFingerprintCollision(t *testing.T) {
	var phiInverse uint64 = 0xF1DE83E19937733D // phi * phiInverse = 1 mod 2^64
	a, b, absent := 0xABCD1234_00000001*phiInverse, 0xABCD1234_00000002*phiInverse, 0xABCD1234_00000003*phiInverse
	if fingerprint(a) != fingerprint(b) || fingerprint(a) != fingerprint(absent) || a == b {
		t.Fatal("the keys do not collide")
	}
	for _, first := range []uint64{a, b} {
		h := newHarness(t, 4, 1)
		h.insert(a, 0, false)
		h.insert(b, 0, false)
		h.check()
		if h.x.Find(absent) != 0 {
			t.Fatal("an absent key sharing the fingerprint was found")
		}
		mustPanic(t, "Insert of the first colliding key", func() { h.x.Insert(a) })
		mustPanic(t, "Insert of the second colliding key", func() { h.x.Insert(b) })
		i := slices.Index(h.keys, first)
		h.remove(i)
		h.check() // the other key is still found, by its own slot
		if h.x.Find(first) != 0 {
			t.Fatalf("removed key %#x still found", first)
		}
		h.insert(first, 0, true)
		h.check()
	}
}

func TestUnlinkHeadTailOnly(t *testing.T) {
	h := newHarness(t, 4, 1)
	h.insert(1, 0, false)
	h.remove(0) // the only node
	h.check()
	if h.lists[0].Front() != 0 || h.lists[0].Back() != 0 {
		t.Fatal("list not empty after its only node left")
	}
	for k := uint64(1); k <= 3; k++ {
		h.insert(k, 0, false)
	}
	h.remove(0) // head (key 1); keys is now [3 2]
	h.check()
	h.remove(0) // tail (key 3)
	h.check()
	if s := h.lists[0].Front(); s != h.lists[0].Back() || h.x.Key(s) != 2 {
		t.Fatalf("left with slot %d key %d", s, h.x.Key(s))
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestBoundAndSlotReuse(t *testing.T) {
	x := New[uint64](5)
	var l List
	slots := map[int32]bool{}
	for k := uint64(1); k <= 5; k++ {
		s := x.Insert(k)
		x.PushBack(&l, s)
		slots[s] = true
	}
	if len(slots) != 5 || slots[0] {
		t.Fatalf("slots %v", slots)
	}
	mustPanic(t, "Insert past the bound", func() { x.Insert(6) })
	freed := x.Find(3)
	x.Remove(&l, freed)
	mustPanic(t, "Insert of a present key", func() { x.Insert(1) })
	if got := x.Insert(7); got != freed {
		t.Fatalf("Insert took slot %d, the slot freed last is %d", got, freed)
	}
	if v := *x.Value(freed); v != 0 {
		t.Fatalf("reused slot carries value %d", v)
	}
	mustPanic(t, "New with a negative bound", func() { New[uint64](-1) })
	if New[uint64](0).Find(1) != 0 {
		t.Fatal("empty index found a key")
	}
}

// TestGrowsByDoublingUpToTheBound: memory follows occupancy, stops at what
// the bound needs, and a full index churns without allocating.
func TestGrowsByDoublingUpToTheBound(t *testing.T) {
	const bound = 1000
	x := New[uint64](1 << 20)
	if len(x.cells) != minCells || cap(x.nodes) > minCells+1 {
		t.Fatalf("a new index with a large bound holds %d cells, %d nodes", len(x.cells), cap(x.nodes))
	}
	x = New[uint64](bound)
	var l List
	cells := len(x.cells)
	for k := uint64(0); k < bound; k++ {
		x.PushBack(&l, x.Insert(k))
		if len(x.cells) != cells {
			if len(x.cells) != 2*cells {
				t.Fatalf("table went from %d to %d cells", cells, len(x.cells))
			}
			cells = len(x.cells)
		}
		if 4*x.Len() > len(x.cells) {
			t.Fatalf("%d keys in %d cells", x.Len(), len(x.cells))
		}
	}
	if cells != 4096 || cap(x.nodes) != bound+1 {
		t.Fatalf("full index: %d cells (want 4096), %d nodes (want %d)", cells, cap(x.nodes), bound+1)
	}
	next := uint64(bound)
	if allocs := testing.AllocsPerRun(5000, func() {
		x.Remove(&l, l.Front())
		x.PushBack(&l, x.Insert(next))
		next++
	}); allocs != 0 {
		t.Fatalf("%v allocs per delete+insert on a full index", allocs)
	}
	if len(x.cells) != 4096 || cap(x.nodes) != bound+1 {
		t.Fatal("churn at the bound grew the index")
	}
}

func BenchmarkFindHit(b *testing.B) {
	const n = 1 << 16
	x := New[struct{}](n)
	for k := uint64(0); k < n; k++ {
		x.Insert(k * 7919)
	}
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += x.Find(uint64(i&(n-1)) * 7919)
	}
	_ = sink
}
