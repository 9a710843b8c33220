package s3fifo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c) })
}

func TestRegistered(t *testing.T) {
	if core.MustNew("s3-fifo", 10).Name() != "s3-fifo" {
		t.Fatal("s3-fifo not registered")
	}
}

// One-hit wonders fall from the small queue into the ghost, never touching
// the main queue.
func TestOneHitWondersFiltered(t *testing.T) {
	p := New(100)
	scan := policytest.SequentialRequests(3000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if p.main.Len() != 0 {
		t.Fatalf("%d one-hit wonders reached the main queue", p.main.Len())
	}
	if p.GhostLen() == 0 {
		t.Fatal("ghost empty after scan")
	}
}

// Ghost-remembered keys are readmitted into the main queue directly.
func TestGhostReadmission(t *testing.T) {
	p := New(20) // small 2, main 18
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4, 1})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if s := p.idx.Find(1); s == 0 || !p.idx.Value(s).inMain {
		t.Fatal("ghost hit not readmitted into main")
	}
}

// An object re-referenced more than once in the small queue is promoted to
// the main queue at small-eviction time.
func TestPromotionThreshold(t *testing.T) {
	p := New(20) // small 2
	// Key 1: two hits (freq 2 > 1) → promote. Key 2: one hit → ghost.
	reqs := policytest.KeysToRequests([]uint64{1, 1, 1, 2, 2, 3, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if s := p.idx.Find(1); s == 0 || !p.idx.Value(s).inMain {
		t.Fatal("twice-hit key 1 not promoted to main")
	}
	if p.Contains(2) {
		t.Fatal("once-hit key 2 should have been evicted to ghost")
	}
	if !p.ghost.Contains(2) {
		t.Fatal("key 2 missing from ghost")
	}
}

// S3-FIFO beats plain FIFO on one-hit-heavy web workloads.
func TestBeatsFIFO(t *testing.T) {
	tr := workload.MajorCDNLike().Generate(9, 8000, 150000)
	cap := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	s3MR := policytest.MissRatio(New(cap), tr.Requests)
	fifoMR := policytest.MissRatio(clock.New(cap, 0), tr.Requests)
	if s3MR >= fifoMR {
		t.Fatalf("s3-fifo (%.4f) not better than fifo (%.4f)", s3MR, fifoMR)
	}
}
