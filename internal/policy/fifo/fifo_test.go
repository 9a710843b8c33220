package fifo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/policytest"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return clock.New(c, 0) })
}

func TestRegistered(t *testing.T) {
	p := core.MustNew("fifo", 4)
	if p.Name() != "fifo" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// A hit must not change eviction order: after hitting the oldest object it
// is still the first evicted.
func TestNoPromotionOnHit(t *testing.T) {
	p := clock.New(3, 0)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 1, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.Contains(1) {
		t.Fatal("key 1 survived; FIFO must ignore hits")
	}
	for _, k := range []uint64{2, 3, 4} {
		if !p.Contains(k) {
			t.Fatalf("key %d missing", k)
		}
	}
}

func TestEvictionIsInsertionOrder(t *testing.T) {
	p := clock.New(2, 0)
	var evicted []uint64
	p.SetEvents(&core.Events{OnEvict: func(k uint64, _ int64) { evicted = append(evicted, k) }})
	reqs := policytest.KeysToRequests([]uint64{10, 20, 30, 40})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	want := []uint64{10, 20}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("evicted %v, want %v", evicted, want)
		}
	}
}

// On a pure scan (no reuse), FIFO's miss ratio is 1.
func TestScanMissRatio(t *testing.T) {
	p := clock.New(16, 0)
	mr := policytest.MissRatio(p, policytest.SequentialRequests(1000))
	if mr != 1.0 {
		t.Fatalf("scan miss ratio = %v, want 1.0", mr)
	}
}
