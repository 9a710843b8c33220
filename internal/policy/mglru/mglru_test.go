package mglru

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/fifo"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 4) })
}

func TestConformanceTwoGens(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 2) })
}

func TestRegistered(t *testing.T) {
	if core.MustNew("mglru", 8).Name() != "mglru" {
		t.Fatal("mglru not registered")
	}
}

func TestBadGenerationsPanics(t *testing.T) {
	for _, g := range []int{0, 1, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("generations=%d did not panic", g)
				}
			}()
			New(8, g)
		}()
	}
}

// A hit is one field write; the deferred promotion happens at eviction
// time and saves the object.
func TestDeferredPromotion(t *testing.T) {
	p := New(4, 2)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4, 1, 5, 6, 7})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("accessed key 1 evicted despite deferred promotion")
	}
}

// Generation bookkeeping: entries always live in a list consistent with
// their generation id, and total population matches the map.
func TestGenerationConsistency(t *testing.T) {
	p := New(64, 4)
	reqs := policytest.Workload(13, 20000, 400)
	for i := range reqs {
		p.Access(&reqs[i])
		total := 0
		for _, l := range p.gens {
			total += l.Len()
		}
		if total != p.idx.Len() {
			t.Fatalf("req %d: lists hold %d, index %d", i, total, p.idx.Len())
		}
	}
	for gi, l := range p.gens {
		for s := l.Front(); s != 0; s = p.idx.Next(s) {
			gen := p.idx.Value(s).gen
			if got := p.listOf(gen); got >= 0 && got != gi {
				t.Fatalf("entry %d in list %d but gen %d maps elsewhere", p.idx.Key(s), gi, gen)
			}
		}
	}
}

// MGLRU beats FIFO (it retains accessed objects) and stays in LRU's band
// on a recency workload.
func TestMissRatioBand(t *testing.T) {
	tr := workload.SocialLike().Generate(9, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	mg := policytest.MissRatio(New(capacity, 4), tr.Requests)
	f := policytest.MissRatio(fifo.New(capacity), tr.Requests)
	l := policytest.MissRatio(lru.New(capacity), tr.Requests)
	if mg >= f {
		t.Errorf("mglru (%.4f) not better than fifo (%.4f)", mg, f)
	}
	if mg > l*1.15 {
		t.Errorf("mglru (%.4f) more than 15%% worse than lru (%.4f)", mg, l)
	}
}
