package qd

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/policy/arc"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/trace"
)

func newQDLRU(c int) *Policy {
	return New(c, Options{}, func(mainCap int) core.Policy { return lru.New(mainCap) })
}

func inGhost(p *Policy, key uint64) bool {
	s := p.E.X.Find(key)
	return s != 0 && p.E.X.Value(s).Where == evict.InGhost
}

// inMain reports whether key is resident in the engine's own main region.
func inMain(p *Policy, key uint64) bool {
	s := p.E.X.Find(key)
	return s != 0 && p.E.X.Value(s).Where == evict.InMain
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
	if p.E.Prob.Max != 10 {
		t.Fatalf("probation cap = %d, want 10", p.E.Prob.Max)
	}
	if p.main.Capacity() != 90 {
		t.Fatalf("main cap = %d, want 90", p.main.Capacity())
	}
	if p.E.GhostLimit() != 90 {
		t.Fatalf("ghost cap = %d, want 90", p.E.GhostLimit())
	}
}

// One-hit wonders never reach the main cache: they die in probation.
func TestOneHitWondersFiltered(t *testing.T) {
	p := newQDLRU(100)
	scan := policytest.SequentialRequests(5000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if got := p.main.Len(); got != 0 {
		t.Fatalf("%d one-hit wonders reached the main cache", got)
	}
	if p.E.Ghost.Len() == 0 {
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
	if !p.main.Contains(1) {
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
	if !p.main.Contains(1) {
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
			p := NewBytes(1000, Options{}, 2)
			for i := range tc.reqs {
				tc.reqs[i].Time = int64(i)
				p.Access(&tc.reqs[i])
			}
			if inMain(p, tc.key) != tc.inMain || p.Contains(tc.key) != tc.resident {
				t.Errorf("key %d: in main %v, resident %v; want %v, %v",
					tc.key, inMain(p, tc.key), p.Contains(tc.key), tc.inMain, tc.resident)
			}
			if int(p.E.Main.Used) != tc.mainUsed || p.Used() != tc.used {
				t.Errorf("main holds %d bytes, the cache %d; want %d, %d", p.E.Main.Used, p.Used(), tc.mainUsed, tc.used)
			}
		})
	}
}

// newSizeQDLP is size-aware QD-LP-FIFO: a byte-capped probation FIFO in
// front of a byte-capped 2-bit CLOCK.
func newSizeQDLP(capacity int) *Policy { return NewBytes(capacity, Options{}, 2) }

// Under a byte cap too, probation filters one-hit wonders before they reach
// main.
func TestQDLPFiltersOneHitWonders(t *testing.T) {
	p := newSizeQDLP(1 << 16)
	for i := 0; i < 2000; i++ {
		r := trace.Request{Key: uint64(i), Size: 256, Time: int64(i)}
		p.Access(&r)
	}
	if n := p.E.Main.List.Len(); n != 0 {
		t.Fatalf("%d one-hit wonders reached the main cache", n)
	}
}

// Under a byte cap too, a ghost hit is admitted into main.
func TestQDLPGhostReadmission(t *testing.T) {
	p := newSizeQDLP(10000) // probation 1000 bytes
	reqs := []trace.Request{
		{Key: 1, Size: 400}, {Key: 2, Size: 400},
		{Key: 3, Size: 400}, {Key: 4, Size: 400}, // push 1,2 into ghost
		{Key: 1, Size: 400}, // ghost hit → main
	}
	for i := range reqs {
		reqs[i].Time = int64(i)
		p.Access(&reqs[i])
	}
	if !inMain(p, 1) {
		t.Fatal("ghost hit not admitted into main")
	}
}

// A byte cap bounds no count of objects, so the indexes are given the slab's
// ceiling; that is a bound, not a reservation: a new policy costs what it
// holds, which is nothing yet.
func TestQDLPConstructionAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := newSizeQDLP(1 << 30)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("NewBytes allocated %d bytes, want at most 64 KiB", got)
	}
	runtime.KeepAlive(p)
}
