// Package fifo registers plain first-in-first-out eviction: CLOCK with a
// zero-bit counter (internal/policy/clock), which never reinserts.
//
// FIFO is the base algorithm of the paper: no promotion ever happens, the
// insertion order is the eviction order. It has the least metadata and the
// cheapest hit path of any policy (nothing is updated on a hit), which is
// why the paper builds its Lazy Promotion and Quick Demotion techniques on
// top of it rather than on LRU.
package fifo

import (
	"repro/internal/core"
	"repro/internal/policy/clock"
)

func init() {
	core.Register("fifo", func(capacity int) core.Policy { return clock.New(capacity, 0) })
}
