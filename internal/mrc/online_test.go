package mrc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lruMiniature builds each of the estimator's miniatures as a one-shard
// LRU cache, so its curve can be checked against exact Mattson LRU.
func lruMiniature(capacity int) (concurrent.Cache, error) {
	return concurrent.New("lru", capacity, concurrent.WithShards(1))
}

// zipfKeys draws n keys from a Zipf(alpha) popularity law over keyspace
// distinct objects, scrambled so numeric adjacency carries no locality (the
// spatial sampler hashes keys; a pathological key set would be a test bug,
// not an estimator bug).
func zipfKeys(seed int64, keyspace, n int, alpha float64) []uint64 {
	z := workload.NewZipf(rand.New(rand.NewSource(seed)), keyspace, alpha)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(z.Next())*0x9e3779b97f4a7c15 + 1
	}
	return keys
}

// Acceptance: the online estimator replaying a Zipf trace agrees with the
// offline exact LRU curve within 0.05 max abs error at every published size.
func TestOnlineMatchesOfflineLRU(t *testing.T) {
	keys := zipfKeys(11, 20000, 300000, 0.9)
	o, err := NewOnline(OnlineConfig{Rate: 0.1, Cache: lruMiniature})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		o.Observe(k)
	}
	sn := o.Publish()
	if sn.SampledAccesses == 0 {
		t.Fatal("no accesses sampled")
	}
	reqs := make([]trace.Request, len(keys))
	for i, k := range keys {
		reqs[i] = trace.Request{Key: k, Size: 1, Time: int64(i)}
	}
	exact := LRU(reqs, append([]int(nil), sn.Curve.Sizes...))
	var worst float64
	for i, s := range sn.Curve.Sizes {
		diff := math.Abs(exact.Ratios[i] - sn.Curve.Ratios[i])
		if diff > worst {
			worst = diff
		}
		if diff > 0.05 {
			t.Errorf("size %d: exact %.4f vs online %.4f (diff %.4f)",
				s, exact.Ratios[i], sn.Curve.Ratios[i], diff)
		}
	}
	t.Logf("max abs error %.4f over %d sizes (sampled %d of %d accesses)",
		worst, len(sn.Curve.Sizes), sn.SampledAccesses, len(keys))
}

// At rate 1 the LRU miniatures are exact LRU caches: the curve must equal
// the offline Mattson curve to floating-point precision at every size.
func TestOnlineExactAtRateOne(t *testing.T) {
	keys := zipfKeys(7, 50, 5000, 0.8) // 50 live keys: miniatures of 16 and 32 evict, 64 holds them all
	o, err := NewOnline(OnlineConfig{Rate: 1, Cache: lruMiniature})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		o.Observe(k)
	}
	sn := o.Publish()
	reqs := make([]trace.Request, len(keys))
	for i, k := range keys {
		reqs[i] = trace.Request{Key: k, Size: 1, Time: int64(i)}
	}
	exact := LRU(reqs, append([]int(nil), sn.Curve.Sizes...))
	for i, s := range sn.Curve.Sizes {
		if diff := math.Abs(exact.Ratios[i] - sn.Curve.Ratios[i]); diff > 1e-12 {
			t.Fatalf("size %d: exact %.6f vs online %.6f", s, exact.Ratios[i], sn.Curve.Ratios[i])
		}
	}
	if sn.SampledAccesses != int64(len(keys)) {
		t.Fatalf("sampled %d, want %d", sn.SampledAccesses, len(keys))
	}
}

// The miniatures bound the tracked set: 70,000 distinct keys at rate 1
// overflow even the largest, which then holds at most its 65,536 slots,
// and every access is a miss at every size.
func TestOnlineBoundsTrackedKeys(t *testing.T) {
	o, err := NewOnline(OnlineConfig{Rate: 1, Cache: lruMiniature})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70000; i++ {
		o.Observe(uint64(i)*0x9e3779b97f4a7c15 + 1) // all distinct: worst case
	}
	sn := o.Publish()
	if sn.TrackedKeys > maxSlots {
		t.Fatalf("tracked %d keys, bound is the largest miniature's %d", sn.TrackedKeys, maxSlots)
	}
	if sn.ColdMisses != sn.SampledAccesses {
		t.Fatalf("all-distinct stream: cold %d != sampled %d", sn.ColdMisses, sn.SampledAccesses)
	}
	for _, r := range sn.Curve.Ratios {
		if r != 1 {
			t.Fatalf("all-cold stream should miss everywhere: %v", sn.Curve.Ratios)
		}
	}
}

// The estimator predicts the served policy, not LRU: on five families at a
// cache of 5 % of the objects, the QDLP miniatures' 1x prediction at rate
// 0.1 lands within 0.02 of a 16-shard QDLP cache's live hit ratio, while
// exact LRU at the same size is more than 0.03 off on at least three.
func TestOnlinePredictsServedHitRatio(t *testing.T) {
	qdlp := func(capacity int) (concurrent.Cache, error) {
		return concurrent.New("qdlp", capacity, concurrent.WithShards(1))
	}
	lruOff := 0
	for _, name := range []string{"majorcdn", "tencentphoto", "twitter", "msr", "wikicdn"} {
		fam, _ := workload.FamilyByName(name)
		tr := fam.Generate(1, 50000, 500000)
		capacity := tr.UniqueObjects() / 20
		live, err := concurrent.New("qdlp", capacity, concurrent.WithShards(16))
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOnline(OnlineConfig{Rate: 0.1, Cache: qdlp})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Requests {
			if _, ok := live.Get(r.Key); !ok {
				live.Set(r.Key, 1)
			}
			o.Observe(r.Key)
		}
		got := live.Stats().HitRatio()
		predicted := o.Publish().Signals(capacity, 0).Scales[1].HitRatio
		lru := 1 - LRU(tr.Requests, []int{capacity}).Ratios[0]
		t.Logf("%s: live %.4f, predicted %.4f, exact LRU %.4f", name, got, predicted, lru)
		if d := math.Abs(predicted - got); d > 0.02 {
			t.Errorf("%s: predicted 1x hit ratio %.4f, live %.4f (off %.4f > 0.02)", name, predicted, got, d)
		}
		if math.Abs(lru-got) > 0.03 {
			lruOff++
		}
	}
	if lruOff < 3 {
		t.Errorf("exact LRU is more than 0.03 off the live QDLP hit ratio on %d families, want at least 3", lruOff)
	}
}

// The Source staging path must deliver the same estimate as direct Observe.
// One staging ring keeps arrival order fully intact (multi-ring staging only
// reorders across keys within a drain window), so the curves match exactly.
func TestOnlineSourceFed(t *testing.T) {
	keys := zipfKeys(3, 5000, 60000, 0.9)
	smp := obs.NewKeySampler(0.1, 1, 1<<16) // one ring, big enough that nothing drops
	src, err := NewOnline(OnlineConfig{Rate: 0.1, Cache: lruMiniature, Source: smp})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewOnline(OnlineConfig{Rate: 0.1, Cache: lruMiniature})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		smp.Offer(k)
		direct.Observe(k)
	}
	got, want := src.Publish(), direct.Publish()
	if got.Dropped != 0 {
		t.Fatalf("staging ring dropped %d keys", got.Dropped)
	}
	if got.SampledAccesses != want.SampledAccesses {
		t.Fatalf("sampled %d via source, %d direct", got.SampledAccesses, want.SampledAccesses)
	}
	for i := range got.Curve.Sizes {
		if diff := math.Abs(got.Curve.Ratios[i] - want.Curve.Ratios[i]); diff > 1e-12 {
			t.Fatalf("size %d: source-fed %.6f vs direct %.6f",
				got.Curve.Sizes[i], got.Curve.Ratios[i], want.Curve.Ratios[i])
		}
	}
}

func TestNewOnlineRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -0.5, 1.5} {
		if _, err := NewOnline(OnlineConfig{Rate: rate, Cache: lruMiniature}); err == nil {
			t.Fatalf("rate %v accepted", rate)
		}
	}
}

func TestOnlineSnapshotNeverNil(t *testing.T) {
	o, err := NewOnline(OnlineConfig{Rate: 0.5, Cache: lruMiniature})
	if err != nil {
		t.Fatal(err)
	}
	sn := o.Snapshot()
	if sn == nil {
		t.Fatal("fresh estimator returned nil snapshot")
	}
	if len(sn.Curve.Ratios) == 0 || sn.Curve.Ratios[0] != 1 {
		t.Fatalf("empty estimator should publish an all-miss curve: %+v", sn.Curve)
	}
}

func TestSignals(t *testing.T) {
	sn := &OnlineSnapshot{Curve: Curve{
		Policy: "shards-online",
		Sizes:  []int{100, 1000, 10000},
		Ratios: []float64{0.8, 0.4, 0.1},
	}}
	sig := sn.Signals(1000, 100) // 100 B/item → ~10486 items per MiB
	if len(sig.Scales) != len(scaleFactors) {
		t.Fatalf("scales = %+v", sig.Scales)
	}
	if got := sig.Scales[1]; got.Scale != 1 || got.Size != 1000 || math.Abs(got.HitRatio-0.6) > 1e-12 {
		t.Fatalf("1x signal = %+v", got)
	}
	if sig.MarginalHitPerMiB <= 0 {
		t.Fatalf("marginal hit per MiB = %v, want positive on a falling curve", sig.MarginalHitPerMiB)
	}
	// Unknown capacity: signals stay empty rather than inventing numbers.
	if s := sn.Signals(0, 0); len(s.Scales) != 0 || s.MarginalHitPerMiB != 0 {
		t.Fatalf("zero-capacity signals = %+v", s)
	}
	var nilSnap *OnlineSnapshot
	if s := nilSnap.Signals(100, 1); len(s.Scales) != 0 {
		t.Fatalf("nil snapshot signals = %+v", s)
	}
}

func TestScaleLabelsMatchFactors(t *testing.T) {
	labels, factors := ScaleLabels(), ScaleFactors()
	if len(labels) != len(factors) {
		t.Fatalf("%d labels vs %d factors", len(labels), len(factors))
	}
	want := []string{"0.5x", "1x", "2x", "4x"}
	for i, l := range labels {
		if l != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestOnlineStartStop(t *testing.T) {
	smp := obs.NewKeySampler(1, 1, 64)
	o, err := NewOnline(OnlineConfig{Rate: 1, Cache: lruMiniature, Source: smp})
	if err != nil {
		t.Fatal(err)
	}
	stop := o.Start(time.Millisecond)
	for i := 0; i < 100; i++ {
		smp.Offer(uint64(i % 10))
	}
	stop()
	stop() // idempotent
	if sn := o.Snapshot(); sn.SampledAccesses+sn.Dropped != 100 {
		t.Fatalf("sampled %d + dropped %d, want 100", sn.SampledAccesses, sn.Dropped)
	}
}
