// Package core defines the cache abstraction at the heart of the paper
// (Figure 1): a cache is a logically total-ordered queue over objects with
// four operations — insertion, removal, promotion, and demotion. Eviction
// policies differ in when they promote (eagerly on every hit, like LRU, or
// lazily at eviction time, like CLOCK) and how fast they demote (passively,
// by letting objects traverse the queue, or quickly, via a probationary
// queue).
//
// Every eviction algorithm in internal/policy implements the Policy
// interface; internal/sim replays traces against policies and computes miss
// ratios; the registry in this package lets tools construct policies by
// name.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/trace"
)

// Policy is a cache eviction policy simulated over a request stream.
//
// The simulator calls Access once per request with monotonically
// non-decreasing Request.Time. On a hit, the policy updates its internal
// bookkeeping (promotion, frequency bits, ...) and returns true. On a miss,
// the policy decides admission, evicts as needed to stay within capacity,
// and returns false.
//
// Policies are not safe for concurrent use; the concurrent cache
// implementations live in internal/concurrent.
type Policy interface {
	// Name returns the canonical policy name (e.g. "lru", "qd-arc").
	Name() string
	// Access processes one request and reports whether it was a hit.
	Access(r *trace.Request) bool
	// Contains reports whether key currently has its data cached. Ghost
	// (metadata-only) entries do not count.
	Contains(key uint64) bool
	// Len returns the number of objects whose data is currently cached.
	Len() int
	// Capacity returns the configured capacity: in objects, or in bytes for
	// a policy built with its package's NewBytes (lru, clock, qd, gdsf).
	Capacity() int
}

// Events carries optional callbacks fired by policies when objects move in
// or out of the cache. The resource-consumption profiler (Figure 3)
// attaches via these hooks so policy hot paths stay allocation-free when no
// listener is registered.
//
// OnInsert fires when an object's data enters the cache, OnEvict when it
// leaves, and OnHit on every cache hit. Callbacks must not re-enter the
// policy.
type Events struct {
	OnInsert func(key uint64, now int64)
	OnEvict  func(key uint64, now int64)
	OnHit    func(key uint64, now int64)
}

// EventSink is implemented by policies that support event callbacks. Every
// registered policy implements it.
type EventSink interface {
	SetEvents(*Events)
}

// Remover is implemented by policies that support user-initiated removal —
// the fourth operation of the paper's Figure-1 cache abstraction ("removal
// can either be directly invoked by the user or indirectly via the use of
// time-to-live"). Remove drops the key's data (reporting whether it was
// resident) and fires OnEvict, since the object's residency ends.
type Remover interface {
	Remove(key uint64) bool
}

// Factory constructs a policy with the given capacity in objects. Factories
// must produce deterministic policies; randomized policies register with a
// fixed default seed and expose seeded constructors in their own packages.
type Factory func(capacity int) Policy

var (
	mu        sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds a named policy factory to the global registry. It panics on
// a duplicate name; registration happens in package init functions where a
// duplicate is a programming error.
func Register(name string, f Factory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("core: duplicate policy registration %q", name))
	}
	factories[name] = f
}

// New constructs the named policy with the given capacity.
func New(name string, capacity int) (Policy, error) {
	mu.RLock()
	f, ok := factories[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", name, Names())
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: policy %q: capacity must be positive, got %d", name, capacity)
	}
	return f(capacity), nil
}

// MustNew is New that panics on error, for tests and benchmarks.
func MustNew(name string, capacity int) Policy {
	p, err := New(name, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the registered policy names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
