package lazylru

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/fifo"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformancePeriodic(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, Periodic) })
}

func TestConformanceOldOnly(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, OldOnly) })
}

func TestConformanceBatched(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, Batched) })
}

func TestRegisteredAndNames(t *testing.T) {
	for _, name := range []string{"lru-periodic", "lru-oldonly", "lru-batched"} {
		if core.MustNew(name, 8).Name() != name {
			t.Fatalf("%s misregistered", name)
		}
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still print")
	}
}

// Periodic: a just-promoted object is not promoted again within the
// threshold window (its queue position stays put).
func TestPeriodicSkipsFreshPromotions(t *testing.T) {
	p := New(8, Periodic) // threshold 2
	reqs := policytest.KeysToRequests([]uint64{1, 2, 1})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// Key 1 was inserted at seq 1 and hit at seq 3: 3-1 >= 2 → promoted.
	if p.idx.Key(p.queue.Front()) != 1 {
		t.Fatal("due promotion skipped")
	}
	// Hit again immediately: seq 4 − lastPromoted 3 < 2 → stays, so after
	// touching 2, key 2's position is unchanged (2 was never promoted).
	reqs2 := policytest.KeysToRequests([]uint64{1})
	p.Access(&reqs2[0])
	if p.idx.Key(p.queue.Front()) != 1 {
		t.Fatal("queue head changed unexpectedly")
	}
}

// OldOnly: a fresh object's hit does not move it; an old object's hit does.
func TestOldOnlyPromotesOldObjects(t *testing.T) {
	p := New(4, OldOnly) // old = age >= 2
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4, 1, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// Key 1 (inserted at seq 1, hit at seq 5, age 4 >= 2) was promoted;
	// key 4 (inserted seq 4, hit seq 6, age 2 >= 2) also promoted.
	if p.idx.Key(p.queue.Front()) != 4 {
		t.Fatalf("front = %d, want 4", p.idx.Key(p.queue.Front()))
	}
}

// Batched: promotions are deferred until the batch flushes.
func TestBatchedDefersPromotions(t *testing.T) {
	p := New(4, Batched)
	p.batchSize = 3
	reqs := policytest.KeysToRequests([]uint64{1, 2, 1, 1})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// Two hits buffered, no flush yet: 2 is still at the front.
	if p.idx.Key(p.queue.Front()) != 2 {
		t.Fatal("promotion applied before batch flush")
	}
	reqs2 := policytest.KeysToRequests([]uint64{1})
	p.Access(&reqs2[0]) // third buffered hit → flush
	if p.idx.Key(p.queue.Front()) != 1 {
		t.Fatal("batch flush did not promote")
	}
}

// All three variants should land between FIFO and LRU-or-better on a
// recency-friendly workload: they retain most of LRU's benefit at a
// fraction of the promotions.
func TestMissRatioBetweenFIFOAndLRUish(t *testing.T) {
	tr := workload.SocialLike().Generate(3, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	fifoMR := policytest.MissRatio(fifo.New(capacity), tr.Requests)
	lruMR := policytest.MissRatio(lru.New(capacity), tr.Requests)
	for _, mode := range []Mode{Periodic, OldOnly, Batched} {
		mr := policytest.MissRatio(New(capacity, mode), tr.Requests)
		if mr >= fifoMR {
			t.Errorf("%s (%.4f) not better than fifo (%.4f)", mode, mr, fifoMR)
		}
		if mr > lruMR*1.10 {
			t.Errorf("%s (%.4f) more than 10%% worse than lru (%.4f)", mode, mr, lruMR)
		}
	}
}
