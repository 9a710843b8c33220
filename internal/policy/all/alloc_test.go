package all

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
)

// TestSimPoliciesZeroAllocsSteadyState: once a sweep policy has seen enough
// of a workload for its index to reach its working size, an Access — hit,
// miss, eviction, ghost hit, promotion — allocates nothing.
func TestSimPoliciesZeroAllocsSteadyState(t *testing.T) {
	const batch = 50000
	reqs := policytest.Workload(11, 6*batch, 2000)
	for _, name := range []string{"fifo", "lru", "clock-2bit", "arc", "qd-arc", "qd-lp-fifo"} {
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
			replay() // warm: fill the cache, the ghosts and ARC's directory
		}
		// AllocsPerRun(1, …) replays one more warm batch, then counts the
		// mallocs of a single one exactly (it truncates a mean over more).
		if allocs := testing.AllocsPerRun(1, replay); allocs != 0 {
			t.Errorf("%s: %v allocs over %d steady-state accesses", name, allocs, batch)
		}
		if hits == 0 || hits == next {
			t.Errorf("%s: %d hits of %d accesses; the guard needs both paths", name, hits, next)
		}
	}
}
