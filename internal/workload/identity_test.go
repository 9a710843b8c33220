package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// hashKeys is the 64-bit FNV-1a hash of key(0), ..., key(n-1), each as
// eight little-endian bytes.
func hashKeys(n int, key func(i int) uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], key(i))
		h.Write(b[:])
	}
	return h.Sum64()
}

// traceFingerprints pins the key stream of every family, at two seeds (the
// calibrated seed 1 and a jittered one) and two shapes: a tiny catalog that
// wraps the history ring and the loop within a few hundred requests, and one
// large enough to fill the 2^16-entry history ring and cross every family's
// phase change (PhaseEvery is at most 200000). A generator change that moves
// any key fails here under the family's name.
var traceFingerprints = []struct {
	family            string
	seed              int64
	objects, requests int
	hash              uint64
}{
	{"msr", 1, 50, 5000, 0x1e152dfb98f3011e},
	{"msr", 1, 20000, 210000, 0x65a4fc1e06762a0a},
	{"msr", 3, 50, 5000, 0x202e4b968f3e416c},
	{"msr", 3, 20000, 210000, 0x777ab847a241aea8},
	{"fiu", 1, 50, 5000, 0x08f348158906515c},
	{"fiu", 1, 20000, 210000, 0x9a124a9e85a0b0c9},
	{"fiu", 3, 50, 5000, 0x0aee8a5e409bb185},
	{"fiu", 3, 20000, 210000, 0x234656360c56cc53},
	{"cloudphysics", 1, 50, 5000, 0x90b8381f813aa76e},
	{"cloudphysics", 1, 20000, 210000, 0xbbbff929286aa002},
	{"cloudphysics", 3, 50, 5000, 0x650cced9cd862f87},
	{"cloudphysics", 3, 20000, 210000, 0x1e329ee404b5f77a},
	{"majorcdn", 1, 50, 5000, 0x7ed9299ca36bf163},
	{"majorcdn", 1, 20000, 210000, 0xfd55dc60da390aa2},
	{"majorcdn", 3, 50, 5000, 0x540548410245669d},
	{"majorcdn", 3, 20000, 210000, 0x7fc297171a6691ec},
	{"tencentphoto", 1, 50, 5000, 0xbb24d1e06dc2e6df},
	{"tencentphoto", 1, 20000, 210000, 0x6978bf8bffecb71b},
	{"tencentphoto", 3, 50, 5000, 0xc26323a8335ef7c7},
	{"tencentphoto", 3, 20000, 210000, 0x7d62366b7390b8ee},
	{"wikicdn", 1, 50, 5000, 0xd412605816c737d0},
	{"wikicdn", 1, 20000, 210000, 0x866d48f4cd3ce454},
	{"wikicdn", 3, 50, 5000, 0x2969ce3a75d20ea2},
	{"wikicdn", 3, 20000, 210000, 0x11e0df93d26ce4af},
	{"tencentcbs", 1, 50, 5000, 0x4f177bf6faceb6f3},
	{"tencentcbs", 1, 20000, 210000, 0x9eb056d01768c729},
	{"tencentcbs", 3, 50, 5000, 0xe57d63bc9c8e7b7a},
	{"tencentcbs", 3, 20000, 210000, 0xdf15d623d169de2f},
	{"alibaba", 1, 50, 5000, 0x4e5b3c490c515692},
	{"alibaba", 1, 20000, 210000, 0x8d781b4324bf33ac},
	{"alibaba", 3, 50, 5000, 0x23423dc103c3d379},
	{"alibaba", 3, 20000, 210000, 0xdfd96a05047c4e12},
	{"twitter", 1, 50, 5000, 0x055d1819aa3e880c},
	{"twitter", 1, 20000, 210000, 0xa66439bbbfa376af},
	{"twitter", 3, 50, 5000, 0x8fb4e9409cbbc306},
	{"twitter", 3, 20000, 210000, 0xb45edb39a2df88df},
	{"social", 1, 50, 5000, 0x3338cfcf885bc421},
	{"social", 1, 20000, 210000, 0x3a2ce30a5bc34f7a},
	{"social", 3, 50, 5000, 0x4241c29be44a4769},
	{"social", 3, 20000, 210000, 0x94618f36e87593f6},
}

func TestTraceFingerprints(t *testing.T) {
	for _, fp := range traceFingerprints {
		f, ok := FamilyByName(fp.family)
		if !ok {
			t.Fatalf("no family %q", fp.family)
		}
		reqs := f.Generate(fp.seed, fp.objects, fp.requests).Requests
		if h := hashKeys(len(reqs), func(i int) uint64 { return reqs[i].Key }); h != fp.hash {
			t.Errorf("%s seed %d (%d objects, %d requests): key hash %#016x, want %#016x",
				fp.family, fp.seed, fp.objects, fp.requests, h, fp.hash)
		}
	}
}

// TestZipfStreamFingerprints pins 2^17 ranks drawn over 2^16 ranks at three
// skews from seed 1, the shape of the benchmark's Zipf key streams.
func TestZipfStreamFingerprints(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		hash  uint64
	}{
		{0.6, 0x63d8648877ff774b},
		{0.99, 0x68588d99e49e0124},
		{1.2, 0x37ae257e7f85e750},
	} {
		z := NewZipf(rand.New(rand.NewSource(1)), 1<<16, c.alpha)
		if h := hashKeys(1<<17, func(int) uint64 { return uint64(z.Next()) }); h != c.hash {
			t.Errorf("alpha %v: rank hash %#016x, want %#016x", c.alpha, h, c.hash)
		}
	}
}

// TestZipfGuideExact checks the guide-table search against binary search
// of the same CDF, on random u and on the u where an off-by-one would show:
// 0, the largest float64 below 1, every CDF value and its neighbours, and
// every bucket edge and the float64 just below it.
func TestZipfGuideExact(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	for _, n := range []int{1, 2, 3, 1000, 1 << 18} {
		for _, alpha := range []float64{0, 0.6, 1.0, 1.5, 3.0} {
			rng := rand.New(rand.NewSource(int64(n) + int64(alpha*10)))
			z := NewZipf(rng, n, alpha)
			bad := 0
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), sort.SearchFloat64s(z.cdf, u); got != want && bad < 5 {
					bad++
					t.Errorf("n=%d alpha=%v u=%v: rank %d, binary search %d", n, alpha, u, got, want)
				}
			}
			check(0)
			check(below1)
			for _, c := range z.cdf {
				check(c)
				check(math.Nextafter(c, 0))
				check(math.Nextafter(c, 1))
			}
			for j := 0; j < len(z.guide); j++ {
				edge := float64(j) / z.scale
				check(edge)
				check(math.Nextafter(edge, 0))
			}
			for i := 0; i < 1<<16; i++ {
				check(rng.Float64())
			}
		}
	}
}

func TestZipfNextZeroAllocs(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 1<<12, 0.99)
	if a := testing.AllocsPerRun(1000, func() { sinkInt += z.Next() }); a != 0 {
		t.Fatalf("Zipf.Next allocates %v times per draw, want 0", a)
	}
}
