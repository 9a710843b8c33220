package concurrent

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	_ "repro/internal/policy/all"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Differential test against the single-threaded references: the same trace
// (get, set on miss) through a one-shard entry-capped cache and through the
// internal/policy implementation of the same algorithm at the same capacity
// must evict the same keys in the same order — not merely land within a
// hit-ratio tolerance of each other.

const (
	diffCapacity = 500
	diffObjects  = 5000
	diffRequests = 60000
)

func diffTraces() map[string][]uint64 {
	rng := rand.New(rand.NewSource(42))
	z := workload.NewZipf(rng, diffObjects, 1.0)
	zipf := make([]uint64, diffRequests)
	for i := range zipf {
		zipf[i] = uint64(z.Next())
	}
	msr := make([]uint64, 0, diffRequests)
	for _, r := range workload.MSRLike().Generate(42, diffObjects, diffRequests).Requests {
		msr = append(msr, r.Key)
	}
	return map[string][]uint64{"zipf": zipf, "msr": msr}
}

func concurrentEvictions(t *testing.T, policy string, keys []uint64) []uint64 {
	t.Helper()
	c, err := New(policy, diffCapacity, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	c.SetEvictHook(func(key uint64, _ obs.Reason) { out = append(out, key) })
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			c.Set(k, k)
		}
	}
	return out
}

// kvEvictions is the served path's half of the same comparison: the trace
// goes through the byte-valued KV (the trace key is both the 8-byte wire key
// and its digest), and the eviction order is read back from the lifecycle
// events a server would expose, not from the hook.
func kvEvictions(t *testing.T, policy string, keys []uint64) []uint64 {
	t.Helper()
	rec := obs.NewRecorder(1, 1<<17) // one ring, larger than any leg's event count: Seq is the order
	c, err := New(policy, diffCapacity, WithShards(1), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(c, 1)
	var key [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(key[:], k)
		if _, _, _, ok := kv.GetDigest(nil, key[:], k); !ok {
			kv.SetDigest(key[:], key[:], 0, k, 0)
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("event ring wrapped: %d events dropped", rec.Dropped())
	}
	evs := rec.Snapshot(0)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	var out []uint64
	for _, ev := range evs {
		if ev.Kind == obs.EvEvict || ev.Kind == obs.EvDemoteGhost {
			out = append(out, ev.Key)
		}
	}
	return out
}

func referenceEvictions(t *testing.T, policy string, keys []uint64) []uint64 {
	t.Helper()
	p, err := core.New(policy, diffCapacity)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	p.(core.EventSink).SetEvents(&core.Events{OnEvict: func(key uint64, _ int64) { out = append(out, key) }})
	for i, k := range keys {
		p.Access(&trace.Request{Key: k, Size: 1, Time: int64(i)})
	}
	return out
}

func TestEvictionSequenceMatchesReference(t *testing.T) {
	traces := diffTraces()
	for _, tc := range []struct{ policy, reference string }{
		{"lru", "lru"},
		{"clock", "clock-2bit"},
		{"sieve", "sieve"},
		// Exact only because an entry cap fixes the ghost at the reference's
		// mainCap entries; under a byte cap the ghost follows the main
		// region's current population instead (see ghostRoom).
		{"qdlp", "qd-lp-fifo"},
	} {
		for name, keys := range traces {
			want := referenceEvictions(t, tc.reference, keys)
			if len(want) < diffCapacity {
				t.Fatalf("%s/%s: reference evicted only %d keys; the trace does not exercise eviction", tc.policy, name, len(want))
			}
			for leg, got := range map[string][]uint64{
				"cache": concurrentEvictions(t, tc.policy, keys),
				"kv":    kvEvictions(t, tc.policy, keys),
			} {
				first := 0
				for first < len(got) && first < len(want) && got[first] == want[first] {
					first++
				}
				if first != len(want) || len(got) != len(want) {
					t.Errorf("%s/%s/%s: eviction %d differs from the reference (%d vs %d evictions in all)",
						tc.policy, name, leg, first, len(got), len(want))
				}
			}
		}
	}
}
