// Package obs is the serving stack's observability layer: lock-free ring
// buffers of cache lifecycle events, sampled per-request spans, and
// structured-logging helpers.
//
// The paper's whole argument is about *when* metadata moves — promotion is
// lazy (deferred to eviction time) and demotion is quick (probation + ghost)
// — yet aggregate counters cannot show a single object moving probation →
// ghost → main, or say which requests were slow and why. This package
// records those per-event details without slowing the hot path:
//
//   - Recording is a nil-check away from free. Every producer holds a
//     *Recorder (or *SpanBuffer) that may be nil; the disabled path is one
//     predictable branch and zero allocations.
//   - When enabled, recording is lock-free and allocation-free: a ring slot
//     is claimed with one atomic add and filled with plain atomic stores
//     guarded by a per-slot sequence word (a seqlock), so writers never
//     block each other or readers, and readers (the admin endpoints) never
//     block writers.
//   - Buffers are bounded and overwrite-oldest. Nothing is ever dropped on
//     the write side; events overwritten before they could be read are
//     counted and exported, so a scrape can say how much history was lost.
package obs

import (
	"sync/atomic"
	"time"
)

// EventKind identifies one step of an object's cache lifecycle.
type EventKind uint8

// The lifecycle steps, in the order an unlucky object meets them.
const (
	// EvNone is the zero kind; it never appears in a recorded event.
	EvNone EventKind = iota
	// EvAdmit is an insert of a new key — into the probationary FIFO for
	// QD-LP-FIFO, or directly into the ring/list for single-queue policies.
	EvAdmit
	// EvPromote is a lazy-promotion decision made at eviction time: a
	// probationary object moving to the main cache, or a CLOCK/SIEVE hand
	// granting a second chance to a referenced object. Freq carries the
	// counter value that earned the promotion.
	EvPromote
	// EvDemoteGhost is quick demotion: a probationary object evicted to the
	// ghost FIFO without ever being requested again.
	EvDemoteGhost
	// EvGhostReadmit is a ghost hit: a recently demoted key re-requested and
	// admitted straight into the main cache — the signal that quick demotion
	// guessed wrong.
	EvGhostReadmit
	// EvEvict is a capacity eviction from the main structure.
	EvEvict
	// EvExpire is a TTL-driven removal (the server's already-expired store).
	EvExpire
	// EvDelete is an explicit client delete.
	EvDelete
	// EvHotReplicate is a cluster-tier event: a key's access frequency
	// crossed the router's hot threshold and the key was replicated to its
	// follower nodes (reads fan out, writes fan to all replicas).
	EvHotReplicate
	// EvHotDemote is the reverse edge: sketch aging decayed a hot key below
	// threshold, so the router stops fanning its reads and writes.
	EvHotDemote
)

// String returns the kind's wire name, used by /debug/events.
func (k EventKind) String() string {
	switch k {
	case EvAdmit:
		return "admit"
	case EvPromote:
		return "promote"
	case EvDemoteGhost:
		return "demote-ghost"
	case EvGhostReadmit:
		return "ghost-readmit"
	case EvEvict:
		return "evict"
	case EvExpire:
		return "expire"
	case EvDelete:
		return "delete"
	case EvHotReplicate:
		return "hot-replicate"
	case EvHotDemote:
		return "hot-demote"
	}
	return "none"
}

// Reason says why an object left the cache (or was reshuffled). It rides on
// both lifecycle events and the eviction hook, so a hook consumer can tell a
// probation overflow from a main-ring eviction without re-deriving policy
// state.
type Reason uint8

// The eviction reasons.
const (
	// ReasonNone marks events that are not removals (admit, promote).
	ReasonNone Reason = iota
	// ReasonProbationOverflow is quick demotion: the probationary FIFO
	// wrapped and the object was never re-requested.
	ReasonProbationOverflow
	// ReasonMainClock is a main-structure eviction chosen by a CLOCK or
	// SIEVE hand finding a zero counter.
	ReasonMainClock
	// ReasonCapacity is a plain capacity eviction with no scan (LRU tail).
	ReasonCapacity
	// ReasonExpired is a TTL-driven removal.
	ReasonExpired
	// ReasonDeleted is an explicit client delete.
	ReasonDeleted
	// ReasonSizeAdmission is a size-aware removal: the object cost more
	// than the region it would enter (the main region, for a QDLP first
	// touch costing more than probation), so it was refused, or, once
	// resized or promoted, evicted.
	ReasonSizeAdmission
)

// String returns the reason's wire name, used by /debug/events.
func (r Reason) String() string {
	switch r {
	case ReasonProbationOverflow:
		return "probation-overflow"
	case ReasonMainClock:
		return "main-clock"
	case ReasonCapacity:
		return "capacity"
	case ReasonExpired:
		return "expired"
	case ReasonDeleted:
		return "deleted"
	case ReasonSizeAdmission:
		return "size-admission"
	}
	return "none"
}

// Event is one lifecycle step of one object. Events are recorded at points
// where the owning policy shard's exclusive lock is already held (admit,
// eviction-time scans, delete), never on the shared-lock hit path, so
// enabling them does not change the paper's hit-path locking discipline.
type Event struct {
	// Seq orders events within one ring (one key's events always land in
	// the same ring, so a key's history is totally ordered by Seq).
	Seq uint64
	// Nanos is the wall-clock UnixNano timestamp. Record stamps it unless
	// the producer already set it (tests use fixed stamps).
	Nanos int64
	// Key is the object's 64-bit digest — the same digest the KV data plane
	// and policy plane key on, so an event stream joins against both.
	Key uint64
	// Kind is the lifecycle step.
	Kind EventKind
	// Reason qualifies removals.
	Reason Reason
	// Freq is the CLOCK counter (or SIEVE visited bit) observed at the
	// decision point — the "clock bits at the decision" a lazy-promotion
	// postmortem needs.
	Freq uint8
}

// eventSlot is one ring slot. All fields are atomics so concurrent
// record/snapshot stays within the Go memory model (and clean under -race).
// seq is both the slot's lock and its version: 0 = never written, slotBusy =
// a writer owns the fields, n+1 = holds the event with Seq n. A writer
// claims the slot by CAS from the version it saw to slotBusy, so two writers
// a lap apart can never interleave their field stores; a reader accepts a
// slot only if seq is a version and is unchanged across its field reads (no
// version recurs, so unchanged means untouched).
type eventSlot struct {
	seq    atomic.Uint64
	nanos  atomic.Int64
	key    atomic.Uint64
	packed atomic.Uint64 // kind<<16 | reason<<8 | freq
}

const slotBusy = ^uint64(0)

// claim takes a ring slot's fields for the writer that drew position n,
// reporting false when the slot is busy or already newer, or when another
// writer wins the CAS: the caller then drops its record.
func claim(seq *atomic.Uint64, n uint64) bool {
	old := seq.Load()
	return old != slotBusy && old <= n+1 && seq.CompareAndSwap(old, slotBusy)
}

func packEvent(kind EventKind, reason Reason, freq uint8) uint64 {
	return uint64(kind)<<16 | uint64(reason)<<8 | uint64(freq)
}

func unpackEvent(p uint64) (EventKind, Reason, uint8) {
	return EventKind(p >> 16), Reason(p >> 8), uint8(p)
}

// eventRing is one lock-free ring. pos is the next sequence number; slot
// i&mask holds the event with Seq i until overwritten a lap later. Writers
// take distinct positions via the atomic add, but positions a lap apart
// share a slot: a writer descheduled mid-write can be lapped, or wake to
// find a newer event where it meant to write. Either one finds the slot
// busy or newer, or loses the claiming CAS, and drops its event — the ring
// then retains the other of two events of which it could keep one, so
// Dropped (positions issued beyond the ring's size) still counts it.
type eventRing struct {
	pos   atomic.Uint64
	_     [56]byte // keep hot write cursors off each other's cache lines
	slots []eventSlot
}

func (r *eventRing) record(ev Event) {
	n := r.pos.Add(1) - 1
	s := &r.slots[n&uint64(len(r.slots)-1)]
	if !claim(&s.seq, n) {
		return
	}
	s.nanos.Store(ev.Nanos)
	s.key.Store(ev.Key)
	s.packed.Store(packEvent(ev.Kind, ev.Reason, ev.Freq))
	s.seq.Store(n + 1) // publish
}

// read returns the slot's event and whether it was stable (published and not
// overwritten mid-read).
func (s *eventSlot) read() (Event, bool) {
	seq := s.seq.Load()
	if seq == 0 || seq == slotBusy {
		return Event{}, false
	}
	ev := Event{Seq: seq - 1, Nanos: s.nanos.Load(), Key: s.key.Load()}
	ev.Kind, ev.Reason, ev.Freq = unpackEvent(s.packed.Load())
	if s.seq.Load() != seq {
		return Event{}, false
	}
	return ev, true
}

// Recorder is a sharded set of lifecycle-event rings. A key's events always
// land in the ring selected by its digest, so one key's history is ordered
// and cheap to extract; different keys spread across rings, keeping the
// write cursors uncontended. The zero value is not usable; a nil *Recorder
// is, and records nothing.
type Recorder struct {
	rings []eventRing
	mask  uint64
}

// mix is the same finalizer-style bit mixer the concurrent caches use for
// shard selection, duplicated here so obs stays a leaf package.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewRecorder returns a recorder with rings ring buffers of perRing slots
// each (both rounded up to powers of two; minimums 1 and 64). Total retained
// history is rings×perRing events.
func NewRecorder(rings, perRing int) *Recorder {
	if rings < 1 {
		rings = 1
	}
	if perRing < 64 {
		perRing = 64
	}
	rings = ceilPow2(rings)
	perRing = ceilPow2(perRing)
	r := &Recorder{rings: make([]eventRing, rings), mask: uint64(rings - 1)}
	for i := range r.rings {
		r.rings[i].slots = make([]eventSlot, perRing)
	}
	return r
}

// Record appends ev to the ring its key hashes to, stamping Seq and (if
// unset) Nanos. Recording on a nil Recorder is a no-op — producers call
// rec.Record unconditionally and pay one branch when tracing is off.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.Nanos == 0 {
		ev.Nanos = time.Now().UnixNano()
	}
	r.rings[mix(ev.Key)&r.mask].record(ev)
}

// Enabled reports whether events are being recorded; producers may use it
// to skip building an Event at all.
func (r *Recorder) Enabled() bool { return r != nil }

// Total returns the number of events ever recorded.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	var total int64
	for i := range r.rings {
		total += int64(r.rings[i].pos.Load())
	}
	return total
}

// Dropped returns how many recorded events have been overwritten before
// they could be read — the ring-buffer drop counter the metrics registry
// exports. It is monotonic.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var dropped int64
	for i := range r.rings {
		ring := &r.rings[i]
		if pos := ring.pos.Load(); pos > uint64(len(ring.slots)) {
			dropped += int64(pos - uint64(len(ring.slots)))
		}
	}
	return dropped
}

// Snapshot returns up to max retained events across all rings, oldest
// first (ordered by timestamp, then ring sequence). max <= 0 means all.
// The snapshot is taken without blocking writers; slots being overwritten
// mid-read are skipped.
func (r *Recorder) Snapshot(max int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = appendRing(out, &r.rings[i], 0, nil)
	}
	sortEvents(out)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// KeyEvents returns up to max retained events for one key digest, oldest
// first. max <= 0 means all.
func (r *Recorder) KeyEvents(key uint64, max int) []Event {
	return r.KeyEventsSince(key, 0, max)
}

// KeyEventsSince returns the key's retained events with Seq >= since,
// oldest first — the incremental read /debug/trace polls with. max <= 0
// means all.
func (r *Recorder) KeyEventsSince(key uint64, since uint64, max int) []Event {
	if r == nil {
		return nil
	}
	match := key
	out := appendRing(nil, &r.rings[mix(key)&r.mask], since, &match)
	sortEvents(out)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// appendRing collects the ring's stable slots with Seq >= since, optionally
// filtered to one key.
func appendRing(out []Event, ring *eventRing, since uint64, key *uint64) []Event {
	for i := range ring.slots {
		ev, ok := ring.slots[i].read()
		if !ok || ev.Seq < since {
			continue
		}
		if key != nil && ev.Key != *key {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// sortEvents orders by timestamp, breaking ties (same-nanosecond bursts,
// fixed test stamps) by ring sequence. Insertion sort: snapshots are small
// and nearly sorted already.
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func less(a, b Event) bool {
	if a.Nanos != b.Nanos {
		return a.Nanos < b.Nanos
	}
	return a.Seq < b.Seq
}
