package qd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/arc"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/trace"
)

func newQDLRU(c int) *Policy {
	return New(c, Options{}, func(mainCap int) core.Policy { return lru.New(mainCap) })
}

func inGhost(p *Policy, key uint64) bool {
	s := p.idx.Find(key)
	return s != 0 && p.idx.Value(s).ghost
}

func TestConformanceOverLRU(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return newQDLRU(c) })
}

func TestConformanceOverARC(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy {
		return New(c, Options{}, func(mainCap int) core.Policy { return arc.New(mainCap) })
	})
}

func TestRegisteredVariants(t *testing.T) {
	for _, name := range []string{"qd-arc", "qd-lirs", "qd-lecar", "qd-cacheus", "qd-lhd"} {
		p := core.MustNew(name, 100)
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
}

func TestBadProbationFracPanics(t *testing.T) {
	for _, f := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ProbationFrac %v did not panic", f)
				}
			}()
			New(10, Options{ProbationFrac: f}, func(c int) core.Policy { return lru.New(c) })
		}()
	}
}

// The paper's sizing: probation 10% of capacity, ghost as many entries as
// the main cache.
func TestPaperSizing(t *testing.T) {
	p := newQDLRU(100)
	if p.probCap != 10 {
		t.Fatalf("probation cap = %d, want 10", p.probCap)
	}
	if p.Main().Capacity() != 90 {
		t.Fatalf("main cap = %d, want 90", p.Main().Capacity())
	}
	if p.ghostCap != 90 {
		t.Fatalf("ghost cap = %d, want 90", p.ghostCap)
	}
}

// One-hit wonders never reach the main cache: they die in probation.
func TestOneHitWondersFiltered(t *testing.T) {
	p := newQDLRU(100)
	scan := policytest.SequentialRequests(5000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if got := p.Main().Len(); got != 0 {
		t.Fatalf("%d one-hit wonders reached the main cache", got)
	}
	if p.GhostLen() == 0 {
		t.Fatal("ghost never recorded the filtered objects")
	}
}

// An object accessed while in probation is promoted to the main cache at
// probation-eviction time, never leaving residency.
func TestPromotionOnAccess(t *testing.T) {
	p := newQDLRU(20) // probation 2, main 18
	var evicted []uint64
	p.SetEvents(&core.Events{OnEvict: func(k uint64, _ int64) { evicted = append(evicted, k) }})
	reqs := policytest.KeysToRequests([]uint64{1, 1, 2, 3})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Main().Contains(1) {
		t.Fatal("accessed probation object not promoted to main")
	}
	if !p.Contains(1) {
		t.Fatal("promoted object lost")
	}
	for _, k := range evicted {
		if k == 1 {
			t.Fatal("promotion surfaced as an eviction event")
		}
	}
}

// A ghost-remembered object is admitted straight into the main cache on its
// next miss.
func TestGhostDirectAdmission(t *testing.T) {
	p := newQDLRU(20)                                       // probation 2, main 18
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4}) // 1,2 fall to ghost
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !inGhost(p, 1) {
		t.Fatal("unaccessed probation victim not in ghost")
	}
	again := policytest.KeysToRequests([]uint64{1})
	if p.Access(&again[0]) {
		t.Fatal("ghost admission reported as a hit")
	}
	if !p.Main().Contains(1) {
		t.Fatal("ghost hit not admitted into main cache")
	}
	if inGhost(p, 1) {
		t.Fatal("key left in ghost after admission")
	}
}

// Events balance even across promotions and ghost admissions.
func TestEventBalance(t *testing.T) {
	p := newQDLRU(32)
	resident := map[uint64]bool{}
	p.SetEvents(&core.Events{
		OnInsert: func(k uint64, _ int64) {
			if resident[k] {
				t.Fatalf("double insert of %d", k)
			}
			resident[k] = true
		},
		OnEvict: func(k uint64, _ int64) {
			if !resident[k] {
				t.Fatalf("evict of non-resident %d", k)
			}
			delete(resident, k)
		},
	})
	reqs := policytest.Workload(77, 20000, 400)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if len(resident) != p.Len() {
		t.Fatalf("tracked %d residents, cache has %d", len(resident), p.Len())
	}
}

// Degenerate capacity-1 wrapper: probation disabled, main gets everything.
func TestTinyCapacity(t *testing.T) {
	p := newQDLRU(1)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 1, 2})
	for i := range reqs {
		p.Access(&reqs[i])
		if p.Len() > 1 {
			t.Fatalf("capacity-1 wrapper holds %d", p.Len())
		}
	}
}

// The seams entry and byte caps share, shown under a byte cap where costs
// differ: 1000 bytes split into 100 of probation and 900 of main.
func TestCostSeams(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reqs     []trace.Request
		key      uint64 // the key the case is about, after reqs
		inMain   bool
		resident bool
		mainUsed int
		used     int
	}{
		{
			name:   "too large for probation goes to main",
			reqs:   []trace.Request{{Key: 1, Size: 200}},
			key:    1,
			inMain: true, resident: true, mainUsed: 200, used: 200,
		},
		{
			name: "too large for probation and for main is bypassed",
			reqs: []trace.Request{{Key: 1, Size: 950}},
			key:  1,
		},
		{
			name: "a ghost hit is admitted to main with its size",
			reqs: []trace.Request{
				{Key: 1, Size: 40}, {Key: 2, Size: 40},
				{Key: 3, Size: 40}, // 120 > 100: 1 falls into the ghost
				{Key: 1, Size: 40},
			},
			key:    1,
			inMain: true, resident: true, mainUsed: 40, used: 120,
		},
		{
			name: "a promoted probation object carries its size into main",
			reqs: []trace.Request{
				{Key: 1, Size: 40}, {Key: 1, Size: 40}, {Key: 2, Size: 40},
				{Key: 3, Size: 40}, // 120 > 100: 1 was requested, so promoted
			},
			key:    1,
			inMain: true, resident: true, mainUsed: 40, used: 120,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewBytes(1000, Options{}, func(mainCap int) core.Policy { return lru.NewBytes(mainCap) })
			for i := range tc.reqs {
				tc.reqs[i].Time = int64(i)
				p.Access(&tc.reqs[i])
			}
			main := p.Main().(*lru.Policy)
			if main.Contains(tc.key) != tc.inMain || p.Contains(tc.key) != tc.resident {
				t.Errorf("key %d: in main %v, resident %v; want %v, %v",
					tc.key, main.Contains(tc.key), p.Contains(tc.key), tc.inMain, tc.resident)
			}
			if main.Used() != tc.mainUsed || p.Used() != tc.used {
				t.Errorf("main holds %d bytes, the cache %d; want %d, %d", main.Used(), p.Used(), tc.mainUsed, tc.used)
			}
		})
	}
}
