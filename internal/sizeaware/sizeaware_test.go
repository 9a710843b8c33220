package sizeaware

import (
	"runtime"
	"testing"

	"repro/internal/policy/qd"
	"repro/internal/trace"
	"repro/internal/workload"
)

func sizedTrace(seed int64) *trace.Trace {
	tr := workload.MajorCDNLike().Generate(seed, 5000, 100000)
	workload.AssignSizes(tr, 4096)
	return tr
}

// mustNew panics on a constructor error — the helper every test with a
// known-good name and capacity uses.
func mustNew(name string, capacity int64) Policy {
	p, err := New(name, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// qdOf returns the Quick Demotion wrapper under New("qdlp", …).
func qdOf(p Policy) *qd.Policy { return p.(sized).byteCapped.(*qd.Policy) }

func policies(t *testing.T, capacity int64) []Policy {
	t.Helper()
	out := make([]Policy, 0, len(Names()))
	for _, name := range Names() {
		p, err := New(name, capacity)
		if err != nil {
			t.Fatalf("New(%q, %d): %v", name, capacity, err)
		}
		out = append(out, p)
	}
	return out
}

// Shared contract: byte usage never exceeds capacity, hits iff resident,
// per-key sizes consistent.
func TestContract(t *testing.T) {
	tr := sizedTrace(1)
	for _, p := range policies(t, 1<<22) {
		t.Run(p.Name(), func(t *testing.T) {
			for i := range tr.Requests {
				r := &tr.Requests[i]
				before := p.Contains(r.Key)
				hit := p.Access(r)
				if hit != before {
					t.Fatalf("req %d: hit=%v resident-before=%v", i, hit, before)
				}
				if p.UsedBytes() > p.CapacityBytes() {
					t.Fatalf("req %d: used %d > capacity %d", i, p.UsedBytes(), p.CapacityBytes())
				}
				if p.UsedBytes() < 0 || p.Len() < 0 {
					t.Fatalf("req %d: negative accounting", i)
				}
			}
			if p.Len() == 0 {
				t.Fatal("cache empty after replay")
			}
		})
	}
}

func TestOversizedObjectBypassed(t *testing.T) {
	for _, p := range policies(t, 1000) {
		r := trace.Request{Key: 1, Size: 5000}
		if p.Access(&r) {
			t.Fatalf("%s: hit on first access", p.Name())
		}
		if p.Contains(1) || p.UsedBytes() != 0 {
			t.Fatalf("%s: oversized object admitted", p.Name())
		}
	}
}

func TestEvictionFreesEnoughBytes(t *testing.T) {
	p := mustNew("lru", 1000)
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
	if p.UsedBytes() != 900 {
		t.Fatalf("used = %d", p.UsedBytes())
	}
}

// Size-aware CLOCK gives requested objects a second chance regardless of
// size.
func TestClockSizeAwareReinsertion(t *testing.T) {
	p := mustNew("clock", 1000)
	reqs := []trace.Request{
		{Key: 1, Size: 400}, {Key: 2, Size: 400},
		{Key: 1, Size: 400},            // hit: sets freq
		{Key: 3, Size: 600, Time: 100}, // forces eviction
	}
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("requested object not reinserted")
	}
	if p.Contains(2) {
		t.Fatal("unrequested object survived over requested one")
	}
}

// GDSF prefers evicting large objects at equal frequency.
func TestGDSFPrefersEvictingLarge(t *testing.T) {
	p := NewGDSF(1000)
	reqs := []trace.Request{
		{Key: 1, Size: 100}, {Key: 2, Size: 800},
		{Key: 3, Size: 500},
	}
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("small object evicted before large one")
	}
	if p.Contains(2) {
		t.Fatal("large cold object survived")
	}
}

// The QDLP probation filters one-hit wonders before they reach main.
func TestQDLPFiltersOneHitWonders(t *testing.T) {
	p := mustNew("qdlp", 1<<16)
	for i := 0; i < 2000; i++ {
		r := trace.Request{Key: uint64(i), Size: 256, Time: int64(i)}
		p.Access(&r)
	}
	if main := qdOf(p).Main(); main.Len() != 0 {
		t.Fatalf("%d one-hit wonders reached the main cache", main.Len())
	}
}

// Ghost readmission works in the size-aware wrapper too.
func TestQDLPGhostReadmission(t *testing.T) {
	p := mustNew("qdlp", 10000) // probation 1000 bytes
	reqs := []trace.Request{
		{Key: 1, Size: 400}, {Key: 2, Size: 400},
		{Key: 3, Size: 400}, {Key: 4, Size: 400}, // push 1,2 into ghost
		{Key: 1, Size: 400}, // ghost hit → main
	}
	for i := range reqs {
		reqs[i].Time = int64(i)
		p.Access(&reqs[i])
	}
	if !qdOf(p).Main().Contains(1) {
		t.Fatal("ghost hit not admitted into main")
	}
}

// A byte cap bounds no count of objects, so the indexes are given the slab's
// ceiling; that is a bound, not a reservation: a new policy costs what it
// holds, which is nothing yet.
func TestQDLPConstructionAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := mustNew("qdlp", 1<<30)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("New(qdlp) allocated %d bytes, want at most 64 KiB", got)
	}
	runtime.KeepAlive(p)
}

// On one-hit-heavy sized web workloads, size-aware QD-LP-FIFO should beat
// size-aware LRU on byte miss ratio, and GDSF should beat plain FIFO.
func TestSizedWorkloadOrdering(t *testing.T) {
	capacity := int64(5000 * 4096 / 10) // ~10% of the footprint
	run := func(p Policy) Result {
		return Run(p, sizedTrace(3))
	}
	lru := run(mustNew("lru", capacity))
	qdlp := run(mustNew("qdlp", capacity))
	fifo := run(mustNew("fifo", capacity))
	gdsf := run(mustNew("gdsf", capacity))
	if qdlp.ByteMissRatio() >= lru.ByteMissRatio() {
		t.Errorf("size-qd-lp-fifo (%.4f) not better than size-lru (%.4f) on byte miss ratio",
			qdlp.ByteMissRatio(), lru.ByteMissRatio())
	}
	if gdsf.MissRatio() >= fifo.MissRatio() {
		t.Errorf("gdsf (%.4f) not better than fifo (%.4f) on object miss ratio",
			gdsf.MissRatio(), fifo.MissRatio())
	}
}

func TestBadCapacityErrors(t *testing.T) {
	for _, name := range Names() {
		for _, capacity := range []int64{0, -1} {
			if _, err := New(name, capacity); err == nil {
				t.Errorf("New(%q, %d) did not error", name, capacity)
			}
		}
	}
}

// TestNew pins the constructor's surface: every name constructs a policy of
// the capacity asked for under its size-aware name, and an unknown name is an
// error.
func TestNew(t *testing.T) {
	names := map[string]string{
		"clock": "size-clock", "fifo": "size-fifo", "gdsf": "gdsf",
		"lru": "size-lru", "qdlp": "size-qd-lp-fifo",
	}
	if len(Names()) != len(names) {
		t.Fatalf("Names() = %v, want the keys of %v", Names(), names)
	}
	for _, name := range Names() {
		p := mustNew(name, 1<<20)
		if p.Name() != names[name] {
			t.Errorf("New(%q) is named %q, want %q", name, p.Name(), names[name])
		}
		if p.CapacityBytes() != 1<<20 {
			t.Errorf("New(%q): capacity %d, want %d", name, p.CapacityBytes(), 1<<20)
		}
	}
	if _, err := New("nope", 1<<20); err == nil {
		t.Error("unknown policy did not error")
	}
}

func TestAssignSizesDeterministicPerKey(t *testing.T) {
	tr := workload.TwitterLike().Generate(1, 1000, 20000)
	workload.AssignSizes(tr, 4096)
	sizes := map[uint64]uint32{}
	var total int64
	for _, r := range tr.Requests {
		if s, ok := sizes[r.Key]; ok && s != r.Size {
			t.Fatalf("key %d has two sizes: %d and %d", r.Key, s, r.Size)
		}
		sizes[r.Key] = r.Size
		if r.Size < 64 {
			t.Fatalf("size %d below floor", r.Size)
		}
		total += int64(r.Size)
	}
	mean := float64(total) / float64(len(tr.Requests))
	// Log-normal with sigma 1.2: mean ≈ median × e^(σ²/2) ≈ 2× median.
	if mean < 2048 || mean > 32768 {
		t.Fatalf("implausible mean size %.0f", mean)
	}
}
