package all

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
)

// allocBudget lists the registered policies that may allocate at steady
// state, with an upper bound on the allocations of 50 000 accesses (the
// measured figure is in each comment). Every other policy sits on
// internal/slab alone and must allocate nothing.
var allocBudget = map[string]float64{
	// lfu.Buckets keeps its per-frequency list directory in a Go map, which
	// allocates now and then as frequencies come and go; emptied lists are
	// reused. Measured 5–19.
	"lfu": 64, "lecar": 64, "cacheus": 64, "qd-lecar": 64, "qd-cacheus": 64,
	// Never on a linked list, so not part of the slab migration: a Go map
	// of heap-allocated entries (belady, lhd) or of expiry times beside the
	// wrapped policy (ttl). Measured 71 869, 36 635, 7 124, 76 271 and
	// 77 363.
	"belady": 85000, "lhd": 43000, "qd-lhd": 8500,
	"ttl-clock-2bit": 88000, "ttl-lru": 89000,
}

// TestSimPoliciesZeroAllocsSteadyState: once a policy has seen enough of a
// workload for its index to reach its working size, an Access — hit, miss,
// eviction, ghost hit, promotion — allocates nothing, or for the policies in
// allocBudget no more than their bound.
func TestSimPoliciesZeroAllocsSteadyState(t *testing.T) {
	const batch = 50000
	reqs := policytest.Workload(11, 6*batch, 2000)
	for _, name := range core.Names() {
		p := core.MustNew(name, 256)
		next, hits := 0, 0
		replay := func() {
			for end := next + batch; next < end; next++ {
				if p.Access(&reqs[next]) {
					hits++
				}
			}
		}
		for i := 0; i < 4; i++ {
			replay() // warm: fill the cache, the ghosts and the directories
		}
		// AllocsPerRun(1, …) replays one more warm batch, then counts the
		// mallocs of a single one exactly (it truncates a mean over more).
		if allocs := testing.AllocsPerRun(1, replay); allocs > allocBudget[name] {
			t.Errorf("%s: %v allocs over %d steady-state accesses, want at most %v", name, allocs, batch, allocBudget[name])
		}
		if hits == 0 || hits == next {
			t.Errorf("%s: %d hits of %d accesses; the guard needs both paths", name, hits, next)
		}
	}
	for name := range allocBudget {
		if _, err := core.New(name, 1); err != nil {
			t.Errorf("allocBudget names %q, which is not registered", name)
		}
	}
}
