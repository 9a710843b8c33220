// Package policyutil holds small helpers shared by the eviction policy
// implementations.
package policyutil

import "repro/internal/core"

// Unbounded is the index bound of a policy whose capacity is in bytes, which
// fix no count of objects: the ceiling of internal/slab, whose tables grow
// with the keys held, so that it costs nothing until it is used.
const Unbounded = 1<<30 - 1

// EventEmitter provides the optional core.EventSink behaviour for policies:
// embed it and call Insert/Evict/Hit at the appropriate points. All calls
// are no-ops until SetEvents is given a non-nil sink, so instrumentation
// costs nothing in ordinary simulation runs.
type EventEmitter struct {
	ev *core.Events
}

// SetEvents installs (or, with nil, removes) the event sink.
func (e *EventEmitter) SetEvents(ev *core.Events) { e.ev = ev }

// Insert fires OnInsert if registered.
func (e *EventEmitter) Insert(key uint64, now int64) {
	if e.ev != nil && e.ev.OnInsert != nil {
		e.ev.OnInsert(key, now)
	}
}

// Evict fires OnEvict if registered.
func (e *EventEmitter) Evict(key uint64, now int64) {
	if e.ev != nil && e.ev.OnEvict != nil {
		e.ev.OnEvict(key, now)
	}
}

// Hit fires OnHit if registered.
func (e *EventEmitter) Hit(key uint64, now int64) {
	if e.ev != nil && e.ev.OnHit != nil {
		e.ev.OnHit(key, now)
	}
}

// Events returns the installed sink (possibly nil) so wrapper policies can
// forward it to inner policies.
func (e *EventEmitter) Events() *core.Events { return e.ev }
