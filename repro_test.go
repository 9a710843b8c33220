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

// TestPolicyNamesComplete pins the exact registered set, so a registration
// or a deletion is a deliberate edit here.
func TestPolicyNamesComplete(t *testing.T) {
	want := []string{
		"arc", "arc-damped", "belady", "bloom-lru", "cacheus", "car",
		"clock", "clock-2bit", "clock-3bit", "fifo", "fifo-reinsertion",
		"lecar", "lfu", "lhd", "lirs", "lru", "lru-batched", "lru-oldonly",
		"lru-periodic", "mglru", "prob-lru", "qd-arc", "qd-cacheus",
		"qd-lecar", "qd-lhd", "qd-lirs", "qd-lp-fifo", "s3-fifo", "sieve",
		"tinylfu-lru", "ttl-clock-2bit", "ttl-lru", "w-tinylfu",
	}
	if got := PolicyNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registered policies:\n have %v\n want %v", got, want)
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
