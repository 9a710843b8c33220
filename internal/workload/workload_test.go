package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestZipfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 100, 0.9)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of [0,100)", r)
		}
	}
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
}

// The empirical rank distribution must be monotonically decreasing-ish and
// match the analytic head probability.
func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, alpha, samples = 1000, 1.0, 200000
	z := NewZipf(rng, n, alpha)
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Next()]++
	}
	// Analytic P(rank 0) = 1/H_n.
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	want := 1 / h
	got := float64(counts[0]) / samples
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("P(rank 0) = %v, want ≈ %v", got, want)
	}
	if counts[0] <= counts[n-1] {
		t.Fatal("head not more popular than tail")
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/100000-0.1) > 0.01 {
			t.Fatalf("alpha=0 not uniform: counts[%d]=%d", i, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, f := range []func(){
		func() { NewZipf(rng, 0, 1) },
		func() { NewZipf(rng, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf with bad args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f := TwitterLike()
	a := f.Generate(7, 2000, 20000)
	b := f.Generate(7, 2000, 20000)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i].Key != b.Requests[i].Key {
			t.Fatalf("request %d differs", i)
		}
	}
	c := f.Generate(8, 2000, 20000)
	same := true
	for i := range a.Requests {
		if a.Requests[i].Key != c.Requests[i].Key {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	for _, f := range Families() {
		tr := f.Generate(1, 3000, 30000)
		if tr.Len() != 30000 {
			t.Fatalf("%s: %d requests", f.Name, tr.Len())
		}
		if tr.Class != f.Class {
			t.Fatalf("%s: class mismatch", f.Name)
		}
		st := tr.ComputeStats()
		if st.Objects < 100 {
			t.Fatalf("%s: only %d unique objects", f.Name, st.Objects)
		}
		if st.MeanFrequency < 1.05 {
			t.Fatalf("%s: almost no reuse (mean freq %v)", f.Name, st.MeanFrequency)
		}
		for i, r := range tr.Requests {
			if r.Time != int64(i) {
				t.Fatalf("%s: Time not the request index", f.Name)
			}
			if r.Size != 1 {
				t.Fatalf("%s: non-uniform size", f.Name)
			}
		}
	}
}

// The social family must show higher object re-reference frequency than the
// CDN family (paper footnote 3: first-layer caches see most objects more
// than once).
func TestSocialHasHighReuse(t *testing.T) {
	social := SocialLike().Generate(1, 5000, 100000).ComputeStats()
	cdn := MajorCDNLike().Generate(1, 5000, 100000).ComputeStats()
	if social.MeanFrequency <= cdn.MeanFrequency {
		t.Fatalf("social mean freq %v <= cdn %v", social.MeanFrequency, cdn.MeanFrequency)
	}
	socialOneHit := float64(social.OneHitWonders) / float64(social.Objects)
	cdnOneHit := float64(cdn.OneHitWonders) / float64(cdn.Objects)
	if socialOneHit >= cdnOneHit {
		t.Fatalf("social one-hit ratio %v >= cdn %v", socialOneHit, cdnOneHit)
	}
}

func TestFamilyByName(t *testing.T) {
	if _, ok := FamilyByName("msr"); !ok {
		t.Fatal("msr not found")
	}
	if _, ok := FamilyByName("nope"); ok {
		t.Fatal("bogus family found")
	}
	if len(Families()) != 10 {
		t.Fatalf("want 10 families, got %d", len(Families()))
	}
}

func TestCacheSize(t *testing.T) {
	if CacheSize(100000, SmallCacheFrac) != 100 {
		t.Fatalf("small = %d", CacheSize(100000, SmallCacheFrac))
	}
	if CacheSize(100000, LargeCacheFrac) != 10000 {
		t.Fatalf("large = %d", CacheSize(100000, LargeCacheFrac))
	}
	if CacheSize(10, SmallCacheFrac) != 8 {
		t.Fatal("floor not applied")
	}
}

func TestGeneratePanicsOnBadSizes(t *testing.T) {
	f := MSRLike()
	for _, args := range [][2]int{{0, 10}, {10, 0}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate(%v) did not panic", args)
				}
			}()
			f.Generate(1, args[0], args[1])
		}()
	}
}

// Property: key namespaces never collide — catalog, one-hit, scan, and
// loop keys are disjoint by construction (top two bits).
func TestKeyNamespaces(t *testing.T) {
	err := quick.Check(func(idx uint64) bool {
		tags := []uint64{tagCatalog, tagOneHit, tagScan, tagLoop}
		seen := map[uint64]bool{}
		for _, tag := range tags {
			k := makeKey(tag, idx)
			if seen[k] {
				return false
			}
			seen[k] = true
			if k>>62 != tag {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Popularity decay: with a positive DecayRate, keys from the first tenth of
// the trace should rarely appear in the last tenth.
func TestDecay(t *testing.T) {
	f := Family{Name: "decay", Class: trace.Web, Alpha: 0.8, DecayRate: 0.1}
	tr := f.Generate(1, 2000, 100000)
	early := map[uint64]bool{}
	for _, r := range tr.Requests[:10000] {
		early[r.Key] = true
	}
	lateHits := 0
	for _, r := range tr.Requests[90000:] {
		if early[r.Key] {
			lateHits++
		}
	}
	if frac := float64(lateHits) / 10000; frac > 0.25 {
		t.Fatalf("decayed keys still account for %.2f of late requests", frac)
	}
}

func TestAssignSizesDeterministicPerKey(t *testing.T) {
	tr := TwitterLike().Generate(1, 1000, 20000)
	AssignSizes(tr, 4096)
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
