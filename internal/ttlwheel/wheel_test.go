package ttlwheel

import (
	"math/rand"
	"testing"
)

// collect returns an Advance callback that appends fired handles to *got.
func collect(got *[]int32) func(int32) {
	return func(h int32) { *got = append(*got, h) }
}

// A timer within the level-0 span must fire on exactly its deadline
// tick, not a tick early or late.
func TestExactExpiry(t *testing.T) {
	w := New(100)
	w.Schedule(7, 142)
	if at, ok := w.ExpireAt(7); !ok || at != 142 {
		t.Fatalf("ExpireAt = %d %v, want 142 true", at, ok)
	}
	var got []int32
	if fired := w.Advance(141, collect(&got)); fired != 0 {
		t.Fatalf("fired %d before deadline (got %v)", fired, got)
	}
	if fired := w.Advance(142, collect(&got)); fired != 1 || len(got) != 1 || got[0] != 7 {
		t.Fatalf("at deadline: fired=%d got=%v", fired, got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after expiry", w.Len())
	}
	if _, ok := w.ExpireAt(7); ok {
		t.Fatal("a fired handle is still armed")
	}
}

// Deadlines at or before the current tick fire on the next Advance — the
// wheel never drops an already-due timer.
func TestPastDeadlineFiresNextTick(t *testing.T) {
	w := New(50)
	w.Schedule(1, 3) // long past
	var got []int32
	if fired := w.Advance(51, collect(&got)); fired != 1 {
		t.Fatalf("past-due timer did not fire on next tick (fired=%d)", fired)
	}
}

// Timers beyond level 0 must cascade down and still fire on exactly
// their deadline tick. Covers level 1 (64 s–68 min) and level 2
// (68 min–3 days) placements, including level boundaries.
func TestCascadeExactness(t *testing.T) {
	for _, delta := range []int64{64, 65, 100, 4095, 4096, 5000, 1 << 17} {
		w := New(1000)
		h := int32(delta)
		deadline := 1000 + delta
		w.Schedule(h, deadline)
		var got []int32
		if fired := w.Advance(deadline-1, collect(&got)); fired != 0 {
			t.Fatalf("delta=%d: fired %d early", delta, fired)
		}
		if fired := w.Advance(deadline, collect(&got)); fired != 1 || got[0] != h {
			t.Fatalf("delta=%d: at deadline fired=%d got=%v", delta, fired, got)
		}
	}
}

// A deadline past the wheel's ~194-day horizon parks at the horizon and
// re-cascades until in range — it must fire at its true deadline, not at
// the horizon.
func TestRolloverBeyondHorizon(t *testing.T) {
	w := New(0)
	deadline := maxSpan + maxSpan/2
	w.Schedule(9, deadline)
	var got []int32
	// Jump near (but before) the horizon: nothing fires.
	if fired := w.Advance(maxSpan-1, collect(&got)); fired != 0 {
		t.Fatalf("fired %d at horizon", fired)
	}
	if fired := w.Advance(deadline-1, collect(&got)); fired != 0 {
		t.Fatalf("fired %d before true deadline", fired)
	}
	if fired := w.Advance(deadline, collect(&got)); fired != 1 || got[0] != 9 {
		t.Fatalf("at true deadline: fired=%d got=%v", fired, got)
	}
}

// Remove disarms; re-Schedule moves the deadline (the old one must not
// fire).
func TestRemoveAndReschedule(t *testing.T) {
	w := New(0)
	w.Schedule(1, 10)
	w.Schedule(2, 10)
	w.Remove(1)
	w.Remove(1) // double-remove is safe
	w.Remove(3) // so is removing a handle never scheduled
	if w.Len() != 1 {
		t.Fatalf("Len = %d after remove", w.Len())
	}
	w.Schedule(2, 20) // move
	var got []int32
	if fired := w.Advance(15, collect(&got)); fired != 0 {
		t.Fatalf("old deadline fired after reschedule: %v", got)
	}
	if fired := w.Advance(20, collect(&got)); fired != 1 || got[0] != 2 {
		t.Fatalf("moved deadline: fired=%d got=%v", fired, got)
	}
}

// A handle removed and then scheduled again with another deadline fires
// once, at the new deadline — the removal leaves nothing behind.
func TestRemoveThenScheduleFiresOnceAtNewDeadline(t *testing.T) {
	for _, later := range []bool{false, true} {
		w := New(0)
		w.Schedule(4, 30)
		w.Remove(4)
		at := int64(12)
		if later {
			at = 300 // another level
		}
		w.Schedule(4, at)
		var firedAt []int64
		for now := int64(1); now <= 400; now++ {
			w.Advance(now, func(h int32) { firedAt = append(firedAt, now) })
		}
		if len(firedAt) != 1 || firedAt[0] != at {
			t.Fatalf("rescheduled for %d: fired at %v", at, firedAt)
		}
	}
}

// The callback may reschedule the handle it just fired (periodic-timer
// shape); the wheel must accept it mid-Advance.
func TestRescheduleFromCallback(t *testing.T) {
	w := New(0)
	w.Schedule(5, 1)
	fires := 0
	w.Advance(3, func(h int32) {
		fires++
		if fires < 3 {
			w.Schedule(h, w.Now()+1)
		}
	})
	if fires != 3 {
		t.Fatalf("periodic reschedule fired %d times, want 3", fires)
	}
}

// The callback may remove another handle due on the same tick, as a cache
// does when reclaiming one object drops another: the removed one must not
// fire, in a level-0 slot or in a cascading one.
func TestCallbackRemovesHandleDueSameTick(t *testing.T) {
	for _, at := range []int64{10, 64 * 3} {
		w := New(0)
		for h := int32(1); h <= 4; h++ {
			w.Schedule(h, at)
		}
		var got []int32
		w.Advance(at, func(h int32) {
			got = append(got, h)
			for other := int32(1); other <= 4; other++ {
				if other != h {
					w.Remove(other)
				}
			}
		})
		if len(got) != 1 || w.Len() != 0 {
			t.Fatalf("at %d: fired %v, Len %d; want one handle and an empty wheel", at, got, w.Len())
		}
	}
}

// The first handle scheduled may lie far past the wheel's node slice: the
// slice grows to it, and nothing below it is armed.
func TestFirstHandleFarBeyondSlice(t *testing.T) {
	w := New(0)
	const far = 1 << 20
	w.Schedule(far, 5)
	if _, ok := w.ExpireAt(far - 1); ok {
		t.Fatal("a handle never scheduled is armed")
	}
	w.Remove(far - 1)
	var got []int32
	if fired := w.Advance(5, collect(&got)); fired != 1 || got[0] != far {
		t.Fatalf("fired=%d got=%v", fired, got)
	}
}

// Randomized agreement with a reference model: every scheduled timer
// fires exactly once, at exactly its deadline, across random schedules,
// removes, and uneven Advance steps.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := New(0)
	const handles = 512
	deadline := map[int32]int64{} // reference: handle → pending deadline
	now := int64(0)
	firedAt := map[int32]int64{}
	expire := func(h int32) { firedAt[h] = now }
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // schedule/reschedule a random handle
			h := 1 + rng.Int31n(handles)
			d := now + 1 + rng.Int63n(6000) // spans levels 0–2
			w.Schedule(h, d)
			deadline[h] = d
			delete(firedAt, h)
		case 2: // remove a random handle
			h := 1 + rng.Int31n(handles)
			w.Remove(h)
			delete(deadline, h)
		case 3: // advance by a random (sometimes large) step
			now += 1 + rng.Int63n(200)
			w.Advance(now, expire)
			for h, d := range deadline {
				if d <= now {
					at, ok := firedAt[h]
					if !ok {
						t.Fatalf("step %d: handle %d (deadline %d) missed by now=%d", step, h, d, now)
					}
					if at < d {
						t.Fatalf("handle %d fired at %d before deadline %d", h, at, d)
					}
					delete(deadline, h)
				}
			}
			for h := range firedAt {
				if d, pending := deadline[h]; pending && d > now {
					t.Fatalf("handle %d fired early (deadline %d, now %d)", h, d, now)
				}
			}
		}
	}
	if got := w.Len(); got != len(deadline) {
		t.Fatalf("Len = %d, reference has %d pending", got, len(deadline))
	}
	for h, d := range deadline {
		if at, ok := w.ExpireAt(h); !ok || at != d {
			t.Fatalf("handle %d: ExpireAt = %d %v, reference %d", h, at, ok, d)
		}
	}
}

// Advancing an empty wheel across many ticks is cheap and fires nothing.
func TestIdleAdvance(t *testing.T) {
	w := New(0)
	if fired := w.Advance(1<<20, func(int32) { t.Fatal("fired on empty wheel") }); fired != 0 {
		t.Fatalf("fired = %d", fired)
	}
}
