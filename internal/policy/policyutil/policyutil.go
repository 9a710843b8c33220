// Package policyutil holds small helpers shared by the eviction policy
// implementations.
package policyutil

import (
	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/trace"
)

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

var _ evict.Sink = (*Adapter)(nil)

// Adapter is what the simulator's policies over an evict.Engine share: the
// engine, its events, and the time of the request being served. It is the
// engine's Sink: an eviction is an OnEvict event, a spared object none.
type Adapter struct {
	EventEmitter
	E   evict.Engine[struct{}]
	Now int64
}

// Init sizes the engine for cfg, reporting to sink: a itself, or the
// policy embedding a when that is also an evict.Outer.
func (a *Adapter) Init(cfg evict.Config, sink evict.Sink) { a.E.Init(cfg, sink) }

// Evicted implements evict.Sink.
func (a *Adapter) Evicted(slot int32, _ evict.Cause) { a.Evict(a.E.X.Key(slot), a.Now) }

// Spared implements evict.Sink.
func (a *Adapter) Spared(int32, uint32) {}

// Capacity implements core.Policy.
func (a *Adapter) Capacity() int { return int(a.E.Main.Max + a.E.Prob.Max) }

// Len implements core.Policy.
func (a *Adapter) Len() int { return a.E.Len() }

// Used returns the cost of the resident objects: their number, or under a
// byte cap their total size.
func (a *Adapter) Used() int { return int(a.E.Main.Used + a.E.Prob.Used) }

// Contains implements core.Policy.
func (a *Adapter) Contains(key uint64) bool { return a.resident(key) != 0 }

// resident returns key's slot when the key holds data, 0 for an absent key
// and for a ghost.
func (a *Adapter) resident(key uint64) int32 {
	if n := a.E.X.Find(key); n != 0 && a.E.X.Value(n).Where != evict.InGhost {
		return n
	}
	return 0
}

// Remove implements core.Remover.
func (a *Adapter) Remove(key uint64) bool {
	n := a.resident(key)
	if n == 0 {
		return false
	}
	a.E.Remove(n)
	a.Evict(key, 0)
	return true
}

// Miss admits r, which is not resident, and reports its insertion; ghost is
// its slot when it is a QDLP ghost.
func (a *Adapter) Miss(r *trace.Request, ghost int32) {
	a.Now = r.Time
	if a.E.Admit(r.Key, ghost, uint64(r.Size)) != 0 {
		a.Insert(r.Key, r.Time)
	}
}
