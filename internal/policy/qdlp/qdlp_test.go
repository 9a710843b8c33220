package qdlp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c) })
}

func TestName(t *testing.T) {
	if New(10).Name() != "qd-lp-fifo" {
		t.Fatalf("name = %q", New(10).Name())
	}
	if core.MustNew("qd-lp-fifo", 10).Name() != "qd-lp-fifo" {
		t.Fatal("registry name mismatch")
	}
}

func TestOptions(t *testing.T) {
	p := NewWithOptions(100, Options{ProbationFrac: 0.25, ClockBits: 1, GhostFactor: 0.5})
	if p.E.Prob.List.Len() != 0 {
		t.Fatal("fresh cache not empty")
	}
	if p.E.Main.Max != 75 || p.E.Prob.Max != 25 {
		t.Fatalf("main and probation budgets = %d, %d, want 75, 25", p.E.Main.Max, p.E.Prob.Max)
	}
	if p.E.GhostLimit() != 37 {
		t.Fatalf("ghost bound = %d, want 37", p.E.GhostLimit())
	}
	if p.E.MaxFreq() != 1 {
		t.Fatalf("1-bit main counts to %d, want 1", p.E.MaxFreq())
	}
}

// QD-LP-FIFO must beat plain FIFO and LRU on web-like workloads with
// popularity decay and one-hit wonders — the paper's headline claim.
func TestBeatsFIFOAndLRUOnWebWorkload(t *testing.T) {
	for _, fam := range []workload.Family{workload.MajorCDNLike(), workload.TencentPhotoLike()} {
		tr := fam.Generate(4, 8000, 150000)
		cap := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
		qdlpMR := policytest.MissRatio(New(cap), tr.Requests)
		fifoMR := policytest.MissRatio(clock.New(cap, 0), tr.Requests)
		lruMR := policytest.MissRatio(lru.New(cap), tr.Requests)
		if qdlpMR >= fifoMR {
			t.Errorf("%s: qd-lp-fifo (%.4f) not better than fifo (%.4f)", fam.Name, qdlpMR, fifoMR)
		}
		if qdlpMR >= lruMR {
			t.Errorf("%s: qd-lp-fifo (%.4f) not better than lru (%.4f)", fam.Name, qdlpMR, lruMR)
		}
	}
}

// One-hit wonders are filtered before touching the main CLOCK.
func TestQuickDemotion(t *testing.T) {
	p := New(100)
	scan := policytest.SequentialRequests(2000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if n := p.E.Main.List.Len(); n != 0 {
		t.Fatalf("%d one-hit wonders polluted the main cache", n)
	}
}
