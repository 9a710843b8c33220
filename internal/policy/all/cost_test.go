package all

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/fifo"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
)

// sameDecisions replays reqs through both policies and fails on the first
// request they answer differently, or if they end with different populations.
func sameDecisions(t *testing.T, a, b core.Policy, capacity int) {
	t.Helper()
	reqs := policytest.Workload(5, 40000, 600)
	for i := range reqs {
		if hitA, hitB := a.Access(&reqs[i]), b.Access(&reqs[i]); hitA != hitB {
			t.Fatalf("cap=%d req %d key %d: hit %v against %v", capacity, i, reqs[i].Key, hitA, hitB)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("cap=%d: final Len %d against %d", capacity, a.Len(), b.Len())
	}
}

// TestEntryCapIsByteCapAtCostOne: lru and clock built with NewBytes and fed
// a trace whose every Size is 1 decide exactly as their entry-capped selves
// at the same capacity — the unified eviction loop `for used+cost > capacity`
// is the old `if Len >= capacity` at cost 1, not one off either way.
// (qd is not here by design: under a byte cap its ghost tracks main's
// population while main fills, so the two modes differ during warm-up. Its
// entry mode is pinned by golden_hits.txt, its byte mode by sizeaware's
// golden_sized.txt.)
func TestEntryCapIsByteCapAtCostOne(t *testing.T) {
	type byteCapped interface {
		core.Policy
		Used() int
	}
	for name, build := range map[string]func(capacity int) (core.Policy, byteCapped){
		"lru":        func(c int) (core.Policy, byteCapped) { return lru.New(c), lru.NewBytes(c) },
		"clock-1bit": func(c int) (core.Policy, byteCapped) { return clock.New(c, 1), clock.NewBytes(c, 1) },
		"clock-2bit": func(c int) (core.Policy, byteCapped) { return clock.New(c, 2), clock.NewBytes(c, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, capacity := range []int{1, 2, 7, 64, 333} {
				byEntries, byBytes := build(capacity)
				sameDecisions(t, byEntries, byBytes, capacity)
				if byBytes.Used() != byBytes.Len() {
					t.Fatalf("cap=%d: %d bytes used by %d one-byte objects", capacity, byBytes.Used(), byBytes.Len())
				}
			}
		})
	}
}

// A 0-bit CLOCK never reinserts: it is FIFO.
func TestZeroBitClockIsFIFO(t *testing.T) {
	for _, capacity := range []int{1, 7, 64} {
		sameDecisions(t, fifo.New(capacity), clock.New(capacity, 0), capacity)
	}
}
