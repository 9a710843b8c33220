package repro

import (
	"strings"
	"testing"
)

func TestPublicFacade(t *testing.T) {
	tr := Generate("twitter", 1, 2000, 30000)
	if tr.Len() != 30000 {
		t.Fatalf("trace length %d", tr.Len())
	}
	capacity := CacheSize(tr.UniqueObjects(), LargeCacheFrac)
	p := NewQDLPFIFO(capacity)
	res := Run(p, tr)
	if mr := res.MissRatio(); mr <= 0 || mr >= 1 {
		t.Fatalf("miss ratio %v", mr)
	}

	lru, err := NewPolicy("lru", capacity)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := Generate("twitter", 1, 2000, 30000)
	lruRes := Run(lru, tr2)
	if res.MissRatio() >= lruRes.MissRatio() {
		t.Fatalf("qd-lp-fifo (%.4f) should beat lru (%.4f) on twitter-like workload",
			res.MissRatio(), lruRes.MissRatio())
	}
}

func TestPolicyNamesComplete(t *testing.T) {
	names := strings.Join(PolicyNames(), ",")
	for _, want := range []string{
		"fifo", "lru", "clock", "fifo-reinsertion", "clock-2bit", "sieve",
		"s3-fifo", "slru", "2q", "arc", "lirs", "lfu", "lecar", "cacheus",
		"lhd", "hyperbolic", "belady", "qd-arc", "qd-lirs", "qd-lecar",
		"qd-cacheus", "qd-lhd", "qd-lp-fifo", "car", "arc-damped", "mglru",
		"tinylfu-lru", "w-tinylfu", "bloom-lru", "prob-lru",
		"lru-periodic", "lru-oldonly", "lru-batched",
		"ttl-lru", "ttl-clock-2bit",
	} {
		if !strings.Contains(","+names+",", ","+want+",") {
			t.Errorf("policy %q not registered (have %s)", want, names)
		}
	}
}

func TestGenerateUnknownFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown family did not panic")
		}
	}()
	Generate("nope", 1, 10, 10)
}

func TestConcurrentConstructors(t *testing.T) {
	for _, name := range ConcurrentNames() {
		c, err := NewConcurrent(name, 1024, WithConcurrentShards(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Set(1, 2)
		if v, ok := c.Get(1); !ok || v != 2 {
			t.Fatalf("%s: Get(1) = %d,%v", name, v, ok)
		}
	}
}

func TestOptionsVariant(t *testing.T) {
	p := NewQDLPFIFOWithOptions(100, QDLPOptions{ProbationFrac: 0.25, ClockBits: 1})
	if p.Capacity() != 100 {
		t.Fatalf("capacity %d", p.Capacity())
	}
}
