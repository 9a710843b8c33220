package lru

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
	"repro/internal/trace"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c) })
}

// A hit promotes: after hitting the oldest object, the second-oldest is
// evicted instead.
func TestPromotionOnHit(t *testing.T) {
	p := New(3)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 1, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("hit key 1 was evicted; LRU must promote on hit")
	}
	if p.Contains(2) {
		t.Fatal("key 2 (least recently used) survived")
	}
}

// LRU respects stack distance exactly: a request stream whose reuse
// distances are all < capacity never misses after warmup.
func TestStackProperty(t *testing.T) {
	p := New(4)
	keys := []uint64{1, 2, 3, 4}
	var seq []uint64
	for i := 0; i < 50; i++ {
		seq = append(seq, keys[i%4])
	}
	reqs := policytest.KeysToRequests(seq)
	hits := 0
	for i := range reqs {
		if p.Access(&reqs[i]) {
			hits++
		}
	}
	if hits != len(reqs)-4 {
		t.Fatalf("hits = %d, want %d", hits, len(reqs)-4)
	}
}

// LRU has no scan resistance: a loop of length capacity+1 always misses
// (the classic LRU pathology the paper's QD technique avoids).
func TestLoopPathology(t *testing.T) {
	p := New(8)
	var seq []uint64
	for i := 0; i < 20; i++ {
		for k := uint64(0); k < 9; k++ { // loop one larger than cache
			seq = append(seq, k)
		}
	}
	reqs := policytest.KeysToRequests(seq)
	mr := policytest.MissRatio(p, reqs)
	if mr != 1.0 {
		t.Fatalf("loop miss ratio = %v, want 1.0 (LRU thrashes on loops)", mr)
	}
}

// Under a byte cap one large insert evicts as many objects as it needs.
func TestEvictionFreesEnoughBytes(t *testing.T) {
	p := NewBytes(1000)
	reqs := []trace.Request{
		{Key: 1, Size: 400}, {Key: 2, Size: 400},
		{Key: 3, Size: 900}, // must evict both
	}
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.Contains(1) || p.Contains(2) || !p.Contains(3) {
		t.Fatal("multi-eviction for a large insert failed")
	}
	if p.Used() != 900 {
		t.Fatalf("used = %d", p.Used())
	}
}
