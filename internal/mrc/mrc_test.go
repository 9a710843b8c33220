package mrc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	_ "repro/internal/policy/all"
	"repro/internal/policy/lru"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func reqsOf(keys ...uint64) []trace.Request {
	out := make([]trace.Request, len(keys))
	for i, k := range keys {
		out[i] = trace.Request{Key: k, Size: 1, Time: int64(i)}
	}
	return out
}

func TestReuseDistancesHandComputed(t *testing.T) {
	// Sequence: a b c a b b a
	reqs := reqsOf(1, 2, 3, 1, 2, 2, 1)
	want := []int{-1, -1, -1, 2, 2, 0, 1}
	got := ReuseDistances(reqs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

// Property: reuse distance computed by the Fenwick algorithm matches a
// brute-force distinct-count, for random small traces.
func TestReuseDistancesProperty(t *testing.T) {
	err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]trace.Request, int(n))
		for i := range reqs {
			reqs[i].Key = uint64(rng.Intn(10))
		}
		got := ReuseDistances(reqs)
		for i := range reqs {
			want := -1
			for j := i - 1; j >= 0; j-- {
				if reqs[j].Key == reqs[i].Key {
					distinct := map[uint64]bool{}
					for k := j + 1; k < i; k++ {
						distinct[reqs[k].Key] = true
					}
					want = len(distinct)
					break
				}
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// The exact MRC must equal simulated LRU at every evaluated size.
func TestLRUCurveMatchesSimulation(t *testing.T) {
	tr := workload.TwitterLike().Generate(3, 3000, 60000)
	sizes := []int{8, 32, 128, 512, 2048}
	curve := LRU(tr.Requests, append([]int(nil), sizes...))
	for i, s := range sizes {
		tr2 := workload.TwitterLike().Generate(3, 3000, 60000)
		sim.Prepare(tr2, false)
		want := sim.Run(lru.New(s), tr2).MissRatio()
		if math.Abs(curve.Ratios[i]-want) > 1e-12 {
			t.Fatalf("size %d: curve %.6f, simulation %.6f", s, curve.Ratios[i], want)
		}
	}
}

func TestCurveMonotone(t *testing.T) {
	tr := workload.MSRLike().Generate(2, 3000, 60000)
	curve := LRU(tr.Requests, LogSizes(8, 2000, 12))
	for i := 1; i < len(curve.Ratios); i++ {
		if curve.Ratios[i] > curve.Ratios[i-1]+1e-12 {
			t.Fatalf("LRU MRC not monotone at %d: %v", i, curve.Ratios)
		}
	}
}

func TestCurveAt(t *testing.T) {
	c := Curve{Sizes: []int{10, 20}, Ratios: []float64{0.8, 0.4}}
	if c.At(5) != 0.8 || c.At(25) != 0.4 || c.At(10) != 0.8 {
		t.Fatal("clamping/exact lookup wrong")
	}
	if got := c.At(15); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("interpolation = %v, want 0.6", got)
	}
	if (Curve{}).At(10) != 1 {
		t.Fatal("empty curve should return 1")
	}
}

// SHARDS sampling with LRU miniatures approximates the exact curve within
// a few points.
func TestLRUSampledApproximatesExact(t *testing.T) {
	tr := workload.TwitterLike().Generate(5, 8000, 200000)
	sizes := LogSizes(64, 4000, 8)
	exact := LRU(tr.Requests, append([]int(nil), sizes...))
	approx, err := Policy(tr, "lru", append([]int(nil), sizes...), 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if diff := math.Abs(exact.Ratios[i] - approx.Ratios[i]); diff > 0.05 {
			t.Fatalf("size %d: exact %.4f vs sampled %.4f (diff %.4f)",
				sizes[i], exact.Ratios[i], approx.Ratios[i], diff)
		}
	}
	full, err := Policy(tr, "lru", append([]int(nil), sizes...), 1, 0)
	if err != nil || full.Policy != "lru" {
		t.Fatalf("rate 1 should simulate the whole trace: %q, %v", full.Policy, err)
	}
}

// Property: SHARDS sampling with LRU miniatures stays close to exact across seeds and rates on
// plain Zipf traces. Rate 0.01 keeps ~10k of 1M keys, so its bound is
// looser — the point is that accuracy degrades gracefully, not that 1% of
// the stream reproduces the curve exactly. The skew is moderate (α=0.75)
// because spatial sampling is a per-key lottery: at α≈1 a handful of head
// keys carry percent-scale access mass each, and whether they land in a 1%
// sample dominates the error — a property of the workload, not the
// estimator.
func TestLRUSampledPropertyAcrossRates(t *testing.T) {
	cases := []struct {
		rate  float64
		bound float64
	}{
		{0.1, 0.05},
		{0.01, 0.10},
	}
	sizes := LogSizes(2000, 200000, 8)
	for _, seed := range []int64{1, 2} {
		keys := zipfKeys(seed, 1000000, 2000000, 0.75)
		reqs := make([]trace.Request, len(keys))
		for i, k := range keys {
			reqs[i] = trace.Request{Key: k, Size: 1, Time: int64(i)}
		}
		exact := LRU(reqs, append([]int(nil), sizes...))
		tr := &trace.Trace{Requests: reqs}
		for _, c := range cases {
			approx, err := Policy(tr, "lru", append([]int(nil), sizes...), c.rate, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sizes {
				if diff := math.Abs(exact.Ratios[i] - approx.Ratios[i]); diff > c.bound {
					t.Errorf("seed %d rate %v size %d: exact %.4f vs sampled %.4f (diff %.4f > %.2f)",
						seed, c.rate, sizes[i], exact.Ratios[i], approx.Ratios[i], diff, c.bound)
				}
			}
		}
	}
}

func TestPolicyCurve(t *testing.T) {
	tr := workload.TwitterLike().Generate(4, 3000, 50000)
	curve, err := Policy(tr, "qd-lp-fifo", []int{32, 256, 1024}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Ratios) != 3 {
		t.Fatalf("ratios = %v", curve.Ratios)
	}
	for i := 1; i < len(curve.Ratios); i++ {
		if curve.Ratios[i] > curve.Ratios[i-1]+0.02 {
			t.Fatalf("qd-lp-fifo MRC increased substantially with size: %v", curve.Ratios)
		}
	}
	if _, err := Policy(tr, "bogus", []int{8}, 1, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, rate := range []float64{0, 1.5} {
		if _, err := Policy(tr, "lru", []int{8}, rate, 1); err == nil {
			t.Fatalf("sample rate %v accepted", rate)
		}
	}
}

func TestLogSizes(t *testing.T) {
	s := LogSizes(8, 8000, 10)
	if s[0] != 8 || s[len(s)-1] > 8000 {
		t.Fatalf("bounds wrong: %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("not strictly increasing: %v", s)
		}
	}
	if got := LogSizes(0, 0, 1); len(got) != 1 {
		t.Fatalf("degenerate LogSizes = %v", got)
	}
}
