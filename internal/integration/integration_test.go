// Package integration exercises cross-module flows end to end: generator →
// codec → simulator → statistics, every registered policy over every
// workload family, and the public facade against the internals it wraps.
package integration

import (
	"bytes"
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/mrc"
	_ "repro/internal/policy/all"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every registered policy replays every family without violating the
// capacity bound, and deterministically.
func TestAllPoliciesAllFamilies(t *testing.T) {
	families := workload.Families()
	for _, fam := range families {
		tr := fam.Generate(1, 1500, 25000)
		sim.Prepare(tr, true)
		for _, name := range core.Names() {
			p := core.MustNew(name, 100)
			res := sim.Run(p, tr)
			if res.Requests != 25000 {
				t.Fatalf("%s/%s: requests %d", fam.Name, name, res.Requests)
			}
			if p.Len() > p.Capacity() {
				t.Fatalf("%s/%s: Len %d > Capacity %d", fam.Name, name, p.Len(), p.Capacity())
			}
			if mr := res.MissRatio(); mr < 0 || mr > 1 {
				t.Fatalf("%s/%s: miss ratio %v", fam.Name, name, mr)
			}
			// Replay must be deterministic.
			tr2 := fam.Generate(1, 1500, 25000)
			sim.Prepare(tr2, true)
			res2 := sim.Run(core.MustNew(name, 100), tr2)
			if res2.Hits != res.Hits {
				t.Fatalf("%s/%s: nondeterministic (%d vs %d hits)", fam.Name, name, res.Hits, res2.Hits)
			}
		}
	}
}

// Belady dominates every online policy on every family (the global sanity
// invariant of the whole simulator).
func TestBeladyDominatesEverywhere(t *testing.T) {
	for _, fam := range workload.Families() {
		tr := fam.Generate(2, 2000, 40000)
		sim.Prepare(tr, true)
		capacity := 200
		min := sim.Run(core.MustNew("belady", capacity), tr).MissRatio()
		for _, name := range core.Names() {
			if name == "belady" {
				continue
			}
			if mr := sim.Run(core.MustNew(name, capacity), tr).MissRatio(); mr < min-1e-12 {
				t.Errorf("%s: %s (%.4f) beat Belady (%.4f)", fam.Name, name, mr, min)
			}
		}
	}
}

// Generator → binary file → decode → simulate gives identical results to
// simulating the in-memory trace.
func TestCodecSimulationAgreement(t *testing.T) {
	tr := workload.TwitterLike().Generate(7, 2000, 30000)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Run(core.MustNew("qd-lp-fifo", 150), tr)
	b := sim.Run(core.MustNew("qd-lp-fifo", 150), decoded)
	if a.Hits != b.Hits {
		t.Fatalf("file round trip changed simulation: %d vs %d hits", a.Hits, b.Hits)
	}
}

// The public facade and the internal packages agree bit-for-bit.
func TestFacadeMatchesInternals(t *testing.T) {
	ext := repro.Generate("msr", 3, 2000, 30000)
	capacity := repro.CacheSize(ext.UniqueObjects(), repro.LargeCacheFrac)
	facade := repro.Run(repro.NewQDLPFIFO(capacity), ext)

	fam, _ := workload.FamilyByName("msr")
	internal := sim.Run(core.MustNew("qd-lp-fifo", capacity), fam.Generate(3, 2000, 30000))
	if facade.Hits != internal.Hits {
		t.Fatalf("facade %d hits, internals %d hits", facade.Hits, internal.Hits)
	}
}

// The exact LRU MRC agrees with sweep-simulated LRU and brackets the
// policies correctly: FIFO above LRU above Belady at each size.
func TestMRCAgainstSweep(t *testing.T) {
	tr := workload.WikiCDNLike().Generate(2, 3000, 60000)
	sizes := []int{30, 300, 1500}
	exact := mrc.LRU(tr.Requests, append([]int(nil), sizes...))
	sweep, err := mrc.Policy(tr, "lru", append([]int(nil), sizes...), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if math.Abs(exact.Ratios[i]-sweep.Ratios[i]) > 1e-12 {
			t.Fatalf("size %d: exact %.6f vs sweep %.6f", sizes[i], exact.Ratios[i], sweep.Ratios[i])
		}
	}
	belady, err := mrc.Policy(tr, "belady", append([]int(nil), sizes...), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := mrc.Policy(tr, "fifo", append([]int(nil), sizes...), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if belady.Ratios[i] > exact.Ratios[i]+1e-12 {
			t.Fatalf("size %d: belady above lru", sizes[i])
		}
		if fifo.Ratios[i] < exact.Ratios[i]-0.05 {
			t.Fatalf("size %d: fifo (%.4f) dramatically below lru (%.4f)", sizes[i], fifo.Ratios[i], exact.Ratios[i])
		}
	}
}

// Every policy that supports removal (the Figure-1 operation) honours it:
// removing a resident key drops residency and population, and the key can
// be re-inserted afterwards.
func TestRemovalAcrossRegistry(t *testing.T) {
	tr := workload.TwitterLike().Generate(11, 1500, 20000)
	sim.Prepare(tr, true)
	removers := 0
	for _, name := range core.Names() {
		p := core.MustNew(name, 64)
		sim.Run(p, tr)
		rm, ok := p.(core.Remover)
		if !ok {
			continue
		}
		removers++
		if p.Len() == 0 {
			t.Fatalf("%s: empty after replay", name)
		}
		// Find a resident key the policy is able to remove. Wrappers like
		// qd-X can only remove from the parts that support removal (the
		// probationary queue when the main policy lacks a Remove), so try
		// candidates until one succeeds.
		var key uint64
		before := 0
		removed := false
		for i := len(tr.Requests) - 1; i >= 0 && !removed; i-- {
			k := tr.Requests[i].Key
			if !p.Contains(k) {
				continue
			}
			before = p.Len()
			if rm.Remove(k) {
				key, removed = k, true
			}
		}
		if !removed {
			t.Fatalf("%s: could not remove any resident key", name)
		}
		if p.Contains(key) {
			t.Fatalf("%s: key resident after Remove", name)
		}
		if p.Len() != before-1 {
			t.Fatalf("%s: Len %d after Remove, want %d", name, p.Len(), before-1)
		}
		if rm.Remove(key) {
			t.Fatalf("%s: double Remove reported success", name)
		}
		// Re-insertion works.
		req := trace.Request{Key: key, Size: 1, Time: int64(len(tr.Requests))}
		p.Access(&req)
		if !p.Contains(key) {
			t.Fatalf("%s: re-insertion after Remove failed", name)
		}
	}
	if removers < 8 {
		t.Fatalf("only %d policies implement Remover; expected at least the queue-based ones", removers)
	}
}

// Event accounting is consistent for every policy: insert − evict == Len
// after a full replay (same invariant the per-policy conformance checks,
// here across the whole registry on a real workload).
func TestEventBalanceAcrossRegistry(t *testing.T) {
	tr := workload.MSRLike().Generate(5, 1500, 25000)
	sim.Prepare(tr, true)
	for _, name := range core.Names() {
		p := core.MustNew(name, 128)
		sink, ok := p.(core.EventSink)
		if !ok {
			t.Errorf("%s does not implement EventSink", name)
			continue
		}
		ins, ev := 0, 0
		sink.SetEvents(&core.Events{
			OnInsert: func(uint64, int64) { ins++ },
			OnEvict:  func(uint64, int64) { ev++ },
		})
		sim.Run(p, tr)
		if ins-ev != p.Len() {
			t.Errorf("%s: inserts %d − evicts %d != Len %d", name, ins, ev, p.Len())
		}
	}
}
