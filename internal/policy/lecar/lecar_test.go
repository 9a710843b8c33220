package lecar

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 1) })
}

func TestWeightsStartBalanced(t *testing.T) {
	p := New(10, 1)
	if p.WeightLRU() != 0.5 {
		t.Fatalf("initial wLRU = %v", p.WeightLRU())
	}
}

// A miss on a key in the LRU history must decrease the LRU weight (regret),
// and weights always stay a valid distribution.
func TestRegretUpdate(t *testing.T) {
	p := New(4, 1)
	// Drive until some key lands in the LRU history, then re-request it.
	reqs := policytest.Workload(13, 5000, 100)
	for i := range reqs {
		p.Access(&reqs[i])
		w := p.WeightLRU()
		if w <= 0 || w >= 1 {
			t.Fatalf("req %d: wLRU = %v out of (0,1)", i, w)
		}
	}
	// The workload has reuse beyond cache size, so both histories got hits
	// and the weight must have moved off 0.5 at some point. Check a direct
	// scenario instead: force an LRU-history hit.
	p2 := New(2, 99)
	seq := policytest.KeysToRequests([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5})
	before := p2.WeightLRU()
	for i := range seq {
		p2.Access(&seq[i])
	}
	if p2.WeightLRU() == before {
		t.Fatal("weights never moved despite history hits")
	}
}

// Readmitted keys restore their pre-eviction frequency + 1 (LeCaR keeps
// frequency in history entries).
func TestHistoryRestoresFrequency(t *testing.T) {
	p := New(2, 1)
	seq := policytest.KeysToRequests([]uint64{1, 1, 1, 2, 3, 4, 1})
	for i := range seq {
		p.Access(&seq[i])
	}
	if !p.Contains(1) {
		t.Skip("key 1 not readmitted under this seed's eviction choices")
	}
	if freq := p.lfu.Freq(1); freq < 2 {
		t.Fatalf("readmitted key frequency = %d, want >= 2", freq)
	}
}

// Internal bookkeeping: LRU list, LFU buckets, and index always agree.
func TestStructuralAgreement(t *testing.T) {
	p := New(16, 1)
	reqs := policytest.Workload(21, 8000, 200)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.lru.Len() != p.idx.Len() {
		t.Fatalf("lru %d != index %d", p.lru.Len(), p.idx.Len())
	}
	if p.lfu.Len() != p.idx.Len() {
		t.Fatalf("buckets %d != index %d", p.lfu.Len(), p.idx.Len())
	}
	for s := p.lru.Front(); s != 0; s = p.idx.Next(s) {
		if p.lfu.Freq(p.idx.Key(s)) == 0 {
			t.Fatalf("key %d on the LRU list is in no bucket", p.idx.Key(s))
		}
	}
	if p.histLRU.Len() > p.capacity || p.histLFU.Len() > p.capacity {
		t.Fatal("history overflow")
	}
}
