package cacheus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
	"repro/internal/slab"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 1) })
}

// SR-LRU expert view: a scan cannot flush objects that were hit (they live
// in the reused segment).
func TestScanResistance(t *testing.T) {
	p := New(20, 1)
	var seq []uint64
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 8; k++ {
			seq = append(seq, k)
		}
	}
	for i := uint64(0); i < 500; i++ {
		seq = append(seq, 1000+i)
	}
	reqs := policytest.KeysToRequests(seq)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	kept := 0
	for k := uint64(0); k < 8; k++ {
		if p.Contains(k) {
			kept++
		}
	}
	if kept < 5 {
		t.Fatalf("only %d/8 reused keys survived the scan", kept)
	}
}

// The learning rate adapts (moves off its initial value) and stays within
// its bounds under a shifting workload.
func TestAdaptiveLearningRate(t *testing.T) {
	p := New(32, 1)
	initial := p.LearningRate()
	reqs := policytest.Workload(31, 10000, 300)
	for i := range reqs {
		p.Access(&reqs[i])
		lr := p.LearningRate()
		if lr < 1e-3 || lr > 1 {
			t.Fatalf("req %d: learning rate %v out of bounds", i, lr)
		}
	}
	if p.LearningRate() == initial {
		t.Fatal("learning rate never adapted")
	}
}

// Weights remain a valid distribution throughout.
func TestWeightsValid(t *testing.T) {
	p := New(8, 7)
	reqs := policytest.Workload(17, 6000, 150)
	for i := range reqs {
		p.Access(&reqs[i])
		w := p.WeightSRLRU()
		if w <= 0 || w >= 1 {
			t.Fatalf("req %d: weight %v out of (0,1)", i, w)
		}
	}
}

// Structural agreement between segments, buckets, and index.
func TestStructuralAgreement(t *testing.T) {
	p := New(16, 1)
	reqs := policytest.Workload(23, 8000, 200)
	for i := range reqs {
		p.Access(&reqs[i])
		if p.sr.Len()+p.rr.Len() != p.idx.Len() {
			t.Fatalf("req %d: segments %d+%d != index %d", i, p.sr.Len(), p.rr.Len(), p.idx.Len())
		}
		if p.lfu.Len() != p.idx.Len() {
			t.Fatalf("req %d: buckets %d != index %d", i, p.lfu.Len(), p.idx.Len())
		}
	}
	for _, l := range []*slab.List{&p.sr, &p.rr} {
		for s := l.Front(); s != 0; s = p.idx.Next(s) {
			if *p.idx.Value(s) != (l == &p.rr) {
				t.Fatalf("key %d carries the wrong segment tag", p.idx.Key(s))
			}
			if p.lfu.Freq(p.idx.Key(s)) == 0 {
				t.Fatalf("key %d on a segment list is in no bucket", p.idx.Key(s))
			}
		}
	}
}
