package concurrent

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	_ "repro/internal/policy/all"
	"repro/internal/policy/clock"
	"repro/internal/policy/lru"
	"repro/internal/policy/qd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Differential test against the single-threaded references: the same trace
// (get, set on miss) through a cache and through the internal/policy
// implementation of the same algorithm must evict the same keys in the same
// order — not merely land within a hit-ratio tolerance of each other. Both
// run internal/evict's decisions, so what this checks is what stays per
// layer: the hit paths, the sharding (a key's shard is hash(key) & mask),
// the exact split of the budget across shards, the index's slot bound, and
// the KV's cost accounting.

const (
	diffCapacity = 500
	diffObjects  = 5000
	diffRequests = 60000
	// diffBytes is the byte budget of the byte-capped legs: about
	// diffCapacity objects of diffSize's mean.
	diffBytes = 300_000
)

// diffSize is key k's cost in the byte-capped legs: at least the 73 bytes
// a KV object with an 8-byte key and a one-byte value costs, so no leg runs
// out of index slots before it runs out of bytes. One key in 64 costs over
// 15000 bytes: more than half of probation in a one-shard cache (30000
// bytes), more than all of it in a 16-shard one (1875), and less than a
// 16-shard main region (16875).
func diffSize(k uint64) uint32 {
	if (hash(k)>>32)%64 == 0 {
		return 15001 + uint32(hash(k)%1000)
	}
	return 73 + uint32(hash(k)%1000)
}

// diffLeg is one cache shape: the shard count and the capacity mode.
type diffLeg struct {
	shards int
	bytes  bool
}

func (l diffLeg) String() string {
	if l.bytes {
		return fmt.Sprintf("%d-shard bytes", l.shards)
	}
	return fmt.Sprintf("%d-shard entries", l.shards)
}

func (l diffLeg) options(rec *obs.Recorder) (int, []Option) {
	opts := []Option{WithShards(l.shards), WithRecorder(rec)}
	if l.bytes {
		return 0, append(opts, WithMaxBytes(diffBytes))
	}
	return diffCapacity, opts
}

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

func concurrentEvictions(t *testing.T, policy string, leg diffLeg, keys []uint64) []uint64 {
	t.Helper()
	capacity, opts := leg.options(nil)
	c, err := New(policy, capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	c.SetEvictHook(func(key uint64, _ obs.Reason) { out = append(out, key) })
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			value := k
			if leg.bytes {
				value = uint64(diffSize(k))
			}
			c.Set(k, value)
		}
	}
	return out
}

// kvEvictions is the served path's half of the same comparison: the trace
// goes through the byte-valued KV (the trace key is both the 8-byte wire key
// and its digest, and a value sized so that the object costs diffSize), and
// the eviction order is read back from the lifecycle events a server would
// expose, not from the hook.
func kvEvictions(t *testing.T, policy string, leg diffLeg, keys []uint64) []uint64 {
	t.Helper()
	rec := obs.NewRecorder(1, 1<<17) // one ring, larger than any leg's event count: Seq is the order
	capacity, opts := leg.options(rec)
	c, err := New(policy, capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(c, 1)
	var key [8]byte
	value := make([]byte, 16000)
	for _, k := range keys {
		binary.BigEndian.PutUint64(key[:], k)
		if _, _, _, ok := kv.GetDigest(nil, key[:], k); !ok {
			kv.SetDigest(key[:], value[:int(diffSize(k))-len(key)-EntryOverhead], 0, k, 0)
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

// referenceEvictions replays keys through one reference policy per shard,
// each built by ref at the budget newBase gives that shard, the request
// going to the reference of the key's shard.
func referenceEvictions(t *testing.T, ref func(budget int, bytes bool) core.Policy, leg diffLeg, keys []uint64) []uint64 {
	t.Helper()
	total := diffCapacity
	if leg.bytes {
		total = diffBytes
	}
	var out []uint64
	refs := make([]core.Policy, leg.shards)
	for i := range refs {
		budget := total / leg.shards
		if i < total%leg.shards {
			budget++
		}
		refs[i] = ref(budget, leg.bytes)
		refs[i].(core.EventSink).SetEvents(&core.Events{OnEvict: func(key uint64, _ int64) { out = append(out, key) }})
	}
	for i, k := range keys {
		r := trace.Request{Key: k, Size: 1, Time: int64(i)}
		if leg.bytes {
			r.Size = diffSize(k)
		}
		refs[hash(k)&uint64(leg.shards-1)].Access(&r)
	}
	return out
}

func TestEvictionSequenceMatchesReference(t *testing.T) {
	traces := diffTraces()
	entries := []diffLeg{{1, false}, {16, false}}
	all := append(entries, diffLeg{1, true}, diffLeg{16, true})
	for _, tc := range []struct {
		policy string
		ref    func(budget int, bytes bool) core.Policy
		legs   []diffLeg
	}{
		{"lru", func(b int, bytes bool) core.Policy {
			if bytes {
				return lru.NewBytes(b)
			}
			return lru.New(b)
		}, all},
		{"clock", func(b int, bytes bool) core.Policy {
			if bytes {
				return clock.NewBytes(b, 2)
			}
			return clock.New(b, 2)
		}, all},
		{"sieve", func(b int, _ bool) core.Policy { return core.MustNew("sieve", b) }, entries},
		{"qdlp", func(b int, bytes bool) core.Policy {
			if bytes {
				return qd.NewBytes(b, qd.Options{}, 2)
			}
			return core.MustNew("qd-lp-fifo", b)
		}, all},
	} {
		for name, keys := range traces {
			for _, leg := range tc.legs {
				want := referenceEvictions(t, tc.ref, leg, keys)
				if len(want) < diffCapacity {
					t.Fatalf("%s/%s/%v: reference evicted only %d keys; the trace does not exercise eviction", tc.policy, name, leg, len(want))
				}
				for via, got := range map[string][]uint64{
					"cache": concurrentEvictions(t, tc.policy, leg, keys),
					"kv":    kvEvictions(t, tc.policy, leg, keys),
				} {
					first := 0
					for first < len(got) && first < len(want) && got[first] == want[first] {
						first++
					}
					if first != len(want) || len(got) != len(want) {
						t.Errorf("%s/%s/%v/%s: eviction %d differs from the reference (%d vs %d evictions in all)",
							tc.policy, name, leg, via, first, len(got), len(want))
					}
				}
			}
		}
	}
}
