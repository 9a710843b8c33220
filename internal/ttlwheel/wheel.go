// Package ttlwheel implements a hashed hierarchical timer wheel for
// coarse (1-second) TTL expiry. The design follows Varghese & Lauck's
// hashed-and-hierarchical timing wheels: four levels of 64 slots each
// cover spans of 64 s, ~68 min, ~3 days, and ~194 days; a timer lands in
// the coarsest level whose slot width still resolves it, and cascades
// down one level each time the wheel's clock crosses that level's slot
// boundary. Schedule, Remove, and Advance are all O(1) amortized — no
// heap, no per-tick scan of pending timers.
//
// Timers are named by int32 handles in [1, 2^30) the caller chooses — a cache
// shard uses its slab slot numbers — and linked by handle in a slice the
// wheel owns, so the wheel holds no pointer into the caller's memory and
// the caller may move or copy whatever the handle names. The slice grows
// to the largest handle ever scheduled and then allocates no more.
//
// The wheel is NOT thread-safe: the caller serializes access, typically
// by embedding one wheel per cache shard and advancing it under that
// shard's existing exclusive lock, so the shared-lock hit path never
// sees the wheel at all.
package ttlwheel

const (
	slotBits = 6
	numSlots = 1 << slotBits // 64
	levels   = 4

	// maxSpan is the widest future interval the wheel can place exactly
	// (level 3's full range, ~194 days). Timers farther out are parked at
	// the wheel's horizon and re-cascaded until their real deadline is in
	// range, so arbitrarily long TTLs still fire — just with extra
	// (cheap) relink work every ~194 days.
	maxSpan = int64(1) << (levels * slotBits)

	// lists is the number of slot lists. Node 1+l is the sentinel of list l
	// (level l/numSlots, slot l%numSlots), handle h is node lists+h, and
	// node 0 stands for "on no list".
	lists = levels * numSlots
)

// node is one timer or one list's sentinel. Lists are circular through
// their sentinel, so unlinking needs no list lookup.
type node struct {
	at         int64 // deadline; unused in sentinels
	prev, next int32 // 0 when the timer is not armed
}

// Wheel is a hierarchical timer wheel. The zero value is unusable; use
// New.
type Wheel struct {
	now   int64 // current tick (unix seconds); timers fire when now >= at
	count int
	nodes []node // sentinels, then one node per handle up to the largest scheduled
}

// New returns a wheel whose clock starts at now (unix seconds).
func New(now int64) *Wheel {
	w := &Wheel{now: now, nodes: make([]node, 1+lists)}
	for i := int32(1); i <= lists; i++ {
		w.nodes[i].prev, w.nodes[i].next = i, i
	}
	return w
}

// Now returns the wheel's current tick.
func (w *Wheel) Now() int64 { return w.now }

// Len returns the number of scheduled timers.
func (w *Wheel) Len() int { return w.count }

// maxHandle bounds the handles a wheel accepts (a slab's slot numbers stay
// below it), so that no node index overflows.
const maxHandle = 1<<30 - 1

// handleNode returns handle h's node index, which may lie past the slice.
func handleNode(h int32) int32 {
	if h <= 0 || h > maxHandle {
		panic("ttlwheel: handle outside [1, 2^30)")
	}
	return lists + h
}

// armed reports whether node i is on a slot list.
func (w *Wheel) armed(i int32) bool {
	return int(i) < len(w.nodes) && w.nodes[i].next != 0
}

// ExpireAt reports the deadline h is armed for, in the wheel's tick units
// (unix seconds for the cache), and whether it is armed at all.
func (w *Wheel) ExpireAt(h int32) (int64, bool) {
	i := handleNode(h)
	if !w.armed(i) {
		return 0, false
	}
	return w.nodes[i].at, true
}

// Schedule (re)arms h to fire at at. A deadline at or before the current
// tick fires on the next Advance. Scheduling an armed handle moves it.
func (w *Wheel) Schedule(h int32, at int64) {
	i := handleNode(h)
	if int(i) >= len(w.nodes) {
		w.nodes = append(w.nodes, make([]node, max(int(i)+1, 2*len(w.nodes))-len(w.nodes))...)
	}
	if w.nodes[i].next != 0 {
		w.unlink(i)
	} else {
		w.count++
	}
	w.nodes[i].at = at
	w.link(i)
}

// Remove disarms h if it is armed. Safe to call on an unarmed handle.
func (w *Wheel) Remove(h int32) {
	if i := handleNode(h); w.armed(i) {
		w.unlink(i)
		w.count--
	}
}

// link places node i in the coarsest level whose resolution still
// separates its deadline from the current tick. Slot indexing uses the
// deadline's own digits (hashed wheel), so no per-level cursor state is
// needed: level l's slot for time t is bits [l*6, l*6+6) of t.
func (w *Wheel) link(i int32) {
	at := w.nodes[i].at
	if at <= w.now {
		at = w.now + 1 // already due: fire on the next tick
	}
	if at-w.now >= maxSpan {
		at = w.now + maxSpan - 1 // beyond the horizon: park and re-cascade
	}
	d := at - w.now
	lvl := 0
	for lvl < levels-1 && d >= int64(1)<<uint((lvl+1)*slotBits) {
		lvl++
	}
	head := sentinel(lvl, at>>uint(lvl*slotBits))
	tail := w.nodes[head].prev
	w.nodes[i].prev, w.nodes[i].next = tail, head
	w.nodes[tail].next = i
	w.nodes[head].prev = i
}

// sentinel returns the sentinel node of level lvl's slot for digit t.
func sentinel(lvl int, t int64) int32 {
	return 1 + int32(lvl*numSlots) + int32(t&(numSlots-1))
}

func (w *Wheel) unlink(i int32) {
	n := &w.nodes[i]
	w.nodes[n.prev].next = n.next
	w.nodes[n.next].prev = n.prev
	n.prev, n.next = 0, 0
}

// Advance moves the clock to now, one tick at a time, calling expire for
// every timer whose deadline has arrived and returning how many fired.
// Expired handles are disarmed before the callback runs, so the callback
// may reschedule them, or schedule or remove any other handle. Advancing
// to a past or current tick is a no-op.
func (w *Wheel) Advance(now int64, expire func(h int32)) int {
	fired := 0
	for w.now < now {
		w.now++
		t := w.now
		fired += w.expireSlot(sentinel(0, t), expire)
		// When the tick crosses a level-l slot boundary (its low l*6 bits
		// just wrapped to zero), that level's current slot covers the
		// window starting now: cascade its timers down.
		for l := 1; l < levels; l++ {
			if t&(int64(1)<<uint(l*slotBits)-1) != 0 {
				break
			}
			fired += w.cascade(sentinel(l, t>>uint(l*slotBits)), expire)
		}
	}
	return fired
}

// expireSlot fires every timer in a level-0 slot. Timers here were
// placed within 64 ticks of their deadline, so landing on the slot means
// the deadline has arrived.
func (w *Wheel) expireSlot(head int32, expire func(h int32)) int {
	fired := 0
	for w.nodes[head].next != head {
		i := w.nodes[head].next
		w.unlink(i)
		w.count--
		fired++
		expire(i - lists)
	}
	return fired
}

// cascade relinks a higher-level slot's timers relative to the new
// current tick: due timers fire, the rest drop to a finer level (or stay
// parked at the horizon).
func (w *Wheel) cascade(head int32, expire func(h int32)) int {
	fired := 0
	for w.nodes[head].next != head {
		i := w.nodes[head].next
		w.unlink(i)
		if w.nodes[i].at <= w.now {
			w.count--
			fired++
			expire(i - lists)
			continue
		}
		w.link(i)
	}
	return fired
}
