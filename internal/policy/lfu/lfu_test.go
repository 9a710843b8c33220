package lfu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c) })
}

func TestEvictsLeastFrequent(t *testing.T) {
	p := New(3)
	reqs := policytest.KeysToRequests([]uint64{1, 1, 1, 2, 2, 3, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.Contains(3) {
		t.Fatal("least-frequent key 3 survived")
	}
	if !p.Contains(1) || !p.Contains(2) || !p.Contains(4) {
		t.Fatal("wrong victim")
	}
}

func TestTieBreaksLRU(t *testing.T) {
	p := New(3)
	// All frequency 1; 1 is least recently used.
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.Contains(1) {
		t.Fatal("tie not broken toward LRU")
	}
}

func TestFrequencyTracking(t *testing.T) {
	p := New(4)
	reqs := policytest.KeysToRequests([]uint64{7, 7, 7})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if got := p.Frequency(7); got != 3 {
		t.Fatalf("Frequency(7) = %d, want 3", got)
	}
	if got := p.Frequency(8); got != 0 {
		t.Fatalf("Frequency(8) = %d, want 0", got)
	}
}

// LFU's pathology: stale frequent objects never leave. A once-hot key
// survives arbitrarily long cold streams (motivates LeCaR's dual experts).
func TestStaleHotObjectSticks(t *testing.T) {
	p := New(4)
	var seq []uint64
	for i := 0; i < 10; i++ {
		seq = append(seq, 1)
	}
	for i := uint64(0); i < 100; i++ {
		seq = append(seq, 100+i)
	}
	reqs := policytest.KeysToRequests(seq)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("frequent key 1 evicted by one-hit stream")
	}
}

// Buckets bookkeeping: every key is on the list its frequency names, no
// empty list is retained, and the minimum is never above a populated one.
func TestBucketsStructure(t *testing.T) {
	p := New(16)
	reqs := policytest.Workload(21, 8000, 200)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	b := p.freqs
	total := 0
	for freq, l := range b.lists {
		if l.Len() == 0 {
			t.Fatalf("empty list %d retained", freq)
		}
		if freq < b.minFreq {
			t.Fatalf("list %d below minFreq %d", freq, b.minFreq)
		}
		for s := l.Front(); s != 0; s = b.idx.Next(s) {
			if *b.idx.Value(s) != freq {
				t.Fatalf("key %d of frequency %d on list %d", b.idx.Key(s), *b.idx.Value(s), freq)
			}
			total++
		}
	}
	if total != b.Len() {
		t.Fatalf("lists hold %d keys, the index %d", total, b.Len())
	}
}
