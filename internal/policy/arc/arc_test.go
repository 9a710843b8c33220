package arc

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

// A hit moves an object from T1 to T2; a second hit keeps it in T2. Objects
// hit twice survive a scan that flushes T1.
func TestFrequencyProtection(t *testing.T) {
	p := New(8)
	reqs := policytest.KeysToRequests([]uint64{1, 1, 2, 2})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	scan := policytest.SequentialRequests(200)
	for i := range scan {
		scan[i].Key += 1000
		p.Access(&scan[i])
	}
	if !p.Contains(1) || !p.Contains(2) {
		t.Fatal("T2-resident keys evicted by a scan; ARC should be scan-resistant")
	}
}

// B1 ghost hits must grow the target p, B2 ghost hits must shrink it.
func TestAdaptation(t *testing.T) {
	p := New(4)
	// Build T2={1,2} via hits, fill T1 with 3,4; inserting 5 triggers
	// REPLACE, which demotes the T1 LRU (3) into the B1 ghost list.
	reqs := policytest.KeysToRequests([]uint64{1, 2, 1, 2, 3, 4, 5})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.Target() != 0 {
		t.Fatalf("initial target = %d, want 0", p.Target())
	}
	if p.Contains(3) {
		t.Fatal("key 3 should have been demoted to B1")
	}
	// Hit the B1 ghost: p must grow and the key is readmitted into T2.
	ghostHit := policytest.KeysToRequests([]uint64{3})
	p.Access(&ghostHit[0])
	if p.Target() <= 0 {
		t.Fatalf("target after B1 hit = %d, want > 0", p.Target())
	}
	if !p.Contains(3) {
		t.Fatal("B1 ghost hit did not readmit the key")
	}
}

// Directory never exceeds 2c entries and resident set never exceeds c.
func TestDirectoryBound(t *testing.T) {
	const c = 32
	p := New(c)
	reqs := policytest.Workload(5, 20000, 300)
	for i := range reqs {
		p.Access(&reqs[i])
		if p.Len() > c {
			t.Fatalf("resident %d > capacity %d", p.Len(), c)
		}
		dir := p.t1.Len() + p.t2.Len() + p.b1.Len() + p.b2.Len()
		if dir > 2*c {
			t.Fatalf("directory %d > 2c %d", dir, 2*c)
		}
		if p.idx.Len() != dir {
			t.Fatalf("index %d != directory %d", p.idx.Len(), dir)
		}
	}
}

// On a Zipf-with-scan mix, ARC should beat LRU (its reason to exist, and
// the paper's Table 2 shows ARC < LRU on both example traces).
func TestBeatsLRUOnMixedWorkload(t *testing.T) {
	tr := workload.MSRLike().Generate(1, 2000, 60000)
	cap := 200
	arcMR := policytest.MissRatio(New(cap), tr.Requests)
	lruMR := policytest.MissRatio(lru.New(cap), tr.Requests)
	if arcMR >= lruMR {
		t.Fatalf("ARC (%.4f) not better than LRU (%.4f) on MSR-like workload", arcMR, lruMR)
	}
}

// AccessResident serves T1/T2 hits exactly as Access does and treats
// everything else — new keys and B1/B2 ghosts alike — as a miss it must not
// act on.
func TestAccessResident(t *testing.T) {
	p, ref := New(4), New(4)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 1, 2, 3, 4, 5}) // 3 ends in B1
	for i := range reqs {
		p.Access(&reqs[i])
		ref.Access(&reqs[i])
	}
	ghost := policytest.KeysToRequests([]uint64{3, 99})
	for i := range ghost {
		if p.AccessResident(&ghost[i]) {
			t.Fatalf("key %d is not resident", ghost[i].Key)
		}
	}
	if p.Target() != 0 || p.Len() != ref.Len() || p.idx.Len() != ref.idx.Len() {
		t.Fatal("a miss through AccessResident changed the cache")
	}
	hit := policytest.KeysToRequests([]uint64{4}) // T1 → T2
	if !p.AccessResident(&hit[0]) || !ref.Access(&hit[0]) {
		t.Fatal("resident key 4 not served")
	}
	if p.t1.Len() != ref.t1.Len() || p.t2.Len() != ref.t2.Len() || p.idx.Key(p.t2.Front()) != 4 {
		t.Fatalf("after the hit: T1 %d T2 %d, Access gives T1 %d T2 %d", p.t1.Len(), p.t2.Len(), ref.t1.Len(), ref.t2.Len())
	}
}
