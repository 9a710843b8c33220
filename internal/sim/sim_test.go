package sim

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	_ "repro/internal/policy/all"
	"repro/internal/trace"
	"repro/internal/workload"
)

func smallTrace() *trace.Trace {
	return workload.TwitterLike().Generate(1, 2000, 30000)
}

func TestRunBasics(t *testing.T) {
	tr := smallTrace()
	res := Run(core.MustNew("lru", 200), tr)
	if res.Requests != 30000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Hits <= 0 || res.Hits >= res.Requests {
		t.Fatalf("implausible hits %d", res.Hits)
	}
	if mr := res.MissRatio(); mr <= 0 || mr >= 1 {
		t.Fatalf("miss ratio %v", mr)
	}
	if res.Policy != "lru" || res.Trace != tr.Name {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestMissRatioEmptyRun(t *testing.T) {
	if (Result{}).MissRatio() != 1 {
		t.Fatal("empty run miss ratio should be 1")
	}
}

func TestRunAnnotatesForOfflinePolicies(t *testing.T) {
	tr := smallTrace()
	// Scrub annotations.
	for i := range tr.Requests {
		tr.Requests[i].NextAccess = 0
		tr.Requests[i].Time = 99
	}
	res := Run(core.MustNew("belady", 200), tr)
	if res.Hits == 0 {
		t.Fatal("belady got zero hits; annotation missing?")
	}
	if tr.Requests[0].Time != 0 {
		t.Fatal("times not normalized")
	}
}

func TestRunSweep(t *testing.T) {
	tr := smallTrace()
	jobs := []Job{
		{Trace: tr, Policy: "lru", Capacity: 100},
		{Trace: tr, Policy: "fifo", Capacity: 100},
		{Trace: tr, Policy: "belady", Capacity: 100},
		{Trace: tr, Policy: "lru", Capacity: 200},
	}
	results, err := RunSweep(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Policy != jobs[i].Policy || r.Capacity != jobs[i].Capacity {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
	// Belady must dominate, larger LRU must beat smaller LRU.
	if results[2].MissRatio() > results[0].MissRatio() {
		t.Fatal("belady lost to lru")
	}
	if results[3].MissRatio() > results[0].MissRatio() {
		t.Fatal("bigger cache did worse")
	}
	// Sweep must agree with a direct run.
	direct := Run(core.MustNew("lru", 100), tr)
	if direct.Hits != results[0].Hits {
		t.Fatalf("sweep (%d hits) disagrees with direct run (%d hits)", results[0].Hits, direct.Hits)
	}
}

// Each job's constructor runs once: the policy that validated the job is the
// one its worker replays, and the custom constructor and label are honoured.
func TestRunSweepBuildsEachPolicyOnce(t *testing.T) {
	tr := smallTrace()
	var builds atomic.Int64
	newLRU := func(capacity int) core.Policy {
		builds.Add(1)
		return core.MustNew("lru", capacity)
	}
	jobs := []Job{
		{Trace: tr, New: newLRU, Capacity: 100, Label: "mine"},
		{Trace: tr, New: newLRU, Capacity: 200},
		{Trace: tr, Policy: "belady", Capacity: 100},
	}
	results, err := RunSweep(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("2 jobs with a constructor built %d policies", got)
	}
	if results[0].Policy != "mine" || results[1].Policy != "lru" {
		t.Fatalf("labels: %q, %q", results[0].Policy, results[1].Policy)
	}
	if direct := Run(core.MustNew("lru", 100), tr); direct.Hits != results[0].Hits {
		t.Fatalf("sweep (%d hits) disagrees with direct run (%d hits)", results[0].Hits, direct.Hits)
	}
}

func TestRunSweepUnknownPolicy(t *testing.T) {
	if _, err := RunSweep([]Job{{Trace: smallTrace(), Policy: "nope", Capacity: 10}}, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestProfileResources(t *testing.T) {
	tr := smallTrace()
	prof := ProfileResources(core.MustNew("lru", 200), tr, 10)
	if len(prof.BucketShare) != 10 {
		t.Fatalf("buckets = %d", len(prof.BucketShare))
	}
	sum := 0.0
	for _, s := range prof.BucketShare {
		if s < 0 {
			t.Fatalf("negative share %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if prof.UnpopularShare <= 0 || prof.UnpopularShare >= 1 {
		t.Fatalf("unpopular share %v", prof.UnpopularShare)
	}
	if prof.Hits == 0 {
		t.Fatal("profile recorded no hits")
	}
}

// The paper's Figure 3 ordering: Belady spends the least on unpopular
// objects, LRU more than ARC.
func TestProfileOrdering(t *testing.T) {
	tr := workload.MSRLike().Generate(3, 5000, 100000)
	cap := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
	share := func(policy string) float64 {
		tr2 := workload.MSRLike().Generate(3, 5000, 100000)
		return ProfileResources(core.MustNew(policy, cap), tr2, 10).UnpopularShare
	}
	_ = tr
	lru := share("lru")
	arc := share("arc")
	belady := share("belady")
	if !(belady < lru) {
		t.Errorf("belady (%v) should spend less on unpopular objects than lru (%v)", belady, lru)
	}
	if !(arc < lru) {
		t.Errorf("arc (%v) should spend less on unpopular objects than lru (%v)", arc, lru)
	}
}
