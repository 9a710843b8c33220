package lirs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c) })
}

// Internal invariants under a long random workload: LIR count bounded,
// stack bottom always LIR, resident sets disjoint and complete.
func TestInvariants(t *testing.T) {
	p := New(50)
	reqs := policytest.Workload(11, 30000, 400)
	for i := range reqs {
		p.Access(&reqs[i])
		if p.lirCount > p.lirCap {
			t.Fatalf("req %d: LIR count %d > cap %d", i, p.lirCount, p.lirCap)
		}
		if b := p.s.Back(); b != 0 && *p.stack.Value(b) != lir {
			t.Fatalf("req %d: stack bottom is not LIR", i)
		}
		if p.nonres.Len() > p.nrCap {
			t.Fatalf("req %d: nonresident %d > bound %d", i, p.nonres.Len(), p.nrCap)
		}
		if p.Len() > p.capacity {
			t.Fatalf("req %d: residents %d > capacity", i, p.Len())
		}
	}
	// Cross-check bookkeeping: every stack slot's state against the queue
	// its key is on, and every queue slot against the stack.
	lirs, hirRes, hirNon := 0, 0, 0
	for s := p.s.Front(); s != 0; s = p.stack.Next(s) {
		queued := p.queues.Find(p.stack.Key(s)) != 0
		switch *p.stack.Value(s) {
		case lir:
			lirs++
			if queued {
				t.Fatal("LIR entry on a queue")
			}
		case hirResident:
			if !queued {
				t.Fatal("resident HIR not in queue Q")
			}
		case hirNonResident:
			if !queued {
				t.Fatal("nonresident HIR not on the nonresident FIFO")
			}
		}
	}
	for q := p.q.Front(); q != 0; q = p.queues.Next(q) {
		hirRes++
		if s := p.stack.Find(p.queues.Key(q)); s != 0 && *p.stack.Value(s) != hirResident {
			t.Fatal("queue Q holds a key the stack does not call resident HIR")
		}
	}
	for q := p.nonres.Front(); q != 0; q = p.queues.Next(q) {
		hirNon++
		if s := p.stack.Find(p.queues.Key(q)); s == 0 || *p.stack.Value(s) != hirNonResident {
			t.Fatal("nonresident FIFO holds a key the stack does not call nonresident")
		}
	}
	if p.s.Len() != p.stack.Len() || hirRes+hirNon != p.queues.Len() {
		t.Fatal("a list and its index disagree on population")
	}
	if lirs != p.lirCount {
		t.Fatalf("LIR count mismatch: %d vs %d", lirs, p.lirCount)
	}
	if hirRes != p.q.Len() {
		t.Fatalf("resident HIR mismatch: %d vs Q %d", hirRes, p.q.Len())
	}
	if hirNon != p.nonres.Len() {
		t.Fatalf("nonresident mismatch: %d vs %d", hirNon, p.nonres.Len())
	}
}

// Low-IRR objects (the looped hot set) must stay resident while high-IRR
// scan traffic flows through the 1% HIR quota — LIRS's defining property.
func TestScanResistance(t *testing.T) {
	p := New(100)
	// Establish a hot set of 50 keys with two rounds (low IRR).
	var seq []uint64
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 50; k++ {
			seq = append(seq, k)
		}
	}
	// Now a huge scan of cold keys.
	for i := uint64(0); i < 2000; i++ {
		seq = append(seq, 10000+i)
	}
	// Hot set again: should still be mostly resident.
	reqs := policytest.KeysToRequests(seq)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	kept := 0
	for k := uint64(0); k < 50; k++ {
		if p.Contains(k) {
			kept++
		}
	}
	if kept < 45 {
		t.Fatalf("only %d/50 hot keys survived the scan", kept)
	}
}

// LIRS should beat LRU on a looping workload larger than the cache.
func TestBeatsLRUOnLoop(t *testing.T) {
	tr := workload.Family{
		Name: "loop", Class: 0, Alpha: 0.8,
		LoopFrac: 0.4, LoopLen: 300,
	}.Generate(3, 2000, 50000)
	cap := 200
	lirsMR := policytest.MissRatio(New(cap), tr.Requests)
	lruMR := policytest.MissRatio(lru.New(cap), tr.Requests)
	if lirsMR >= lruMR {
		t.Fatalf("LIRS (%.4f) not better than LRU (%.4f) on loop workload", lirsMR, lruMR)
	}
}

// A nonresident HIR key re-referenced quickly gets readmitted as LIR.
func TestNonresidentUpgrade(t *testing.T) {
	p := New(10) // lirCap 9, hirCap 1
	var seq []uint64
	for k := uint64(0); k < 9; k++ { // fill LIR set
		seq = append(seq, k)
	}
	// 100,101,102: each becomes resident HIR then is pushed out by the next.
	seq = append(seq, 100, 101, 102, 100)
	reqs := policytest.KeysToRequests(seq)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// 100 was nonresident-HIR in the stack when re-referenced → now LIR.
	if s := p.stack.Find(100); s == 0 || *p.stack.Value(s) != lir {
		t.Fatal("re-referenced nonresident key not upgraded to LIR")
	}
}
