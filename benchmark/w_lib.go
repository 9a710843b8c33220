package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/concurrent"
	"repro/internal/workload"
)

// lib-hot and lib-churn drive the same layer, concurrent.KV, in process
// and in opposite directions: lib-hot is all hits (digest, shard read lock,
// policy hit path), lib-churn is misses with eviction, TTLs and varied
// sizes. A hit-path gain bought at the miss path's cost shows on the second.
//
// Both run one goroutine on one CPU. Two goroutines on the reference
// runner's two virtual CPUs completed no more ops per second than one (they
// pass the shards' cache lines back and forth), and what a line transfer
// costs depends on where the hypervisor has put the two CPUs: lib-hot ran at
// 0.20, 0.26 and 0.29 µs per op within one hour. What goroutines cost each
// other is the per-layer concurrent.*.hit_ns_par, which has no bound.

const (
	// One latency sample is the time per op of libGroup consecutive ops,
	// taken every libSampleEvery ops; a timer on every op would cost as much
	// as a lib-hot op does. The group length is the one at which lib-hot's
	// p99 repeats. Six runs timed in groups of 16 throughout and regrouped:
	//
	//	ops per group    16    32    64   128   256  1024
	//	p99, µs per op  0.23  0.29  0.39  0.29  0.24  0.19
	//	spread, %       17.4   7.7   3.9   7.1  10.4  16.4
	//
	// The p99 of short groups is a few cache misses deep, and how deep is the
	// neighbours' doing on a shared host (groups of 16 moved by 38 % between
	// the quiet and the disturbed half of one set of ten runs). About one
	// 8 µs window in seventy holds a ~16 µs interruption, the virtual
	// machine's timer tick; at 64 ops the p99 is a window with exactly one,
	// and longer groups dilute it into a noisy mix. So lib-hot's p99 is its
	// mean cost plus a constant of the runner, and a tail of its own shows
	// only once it outweighs a tick spread over 64 ops.
	libGroup       = 64
	libSampleEvery = 256
	libStreamLen   = 1 << 20 // the stream is looped
	hotKeys        = 32768
	hotEntries     = 65536
	churnBytes     = 32 << 20
	// churnObjects is the msr catalog size. With ~1 KiB mean entries about
	// 32k fit in churnBytes, so the keyspace is over 8x what fits.
	churnObjects = 1 << 18
	// churnTickOps is how many ops make one virtual second.
	churnTickOps = 1 << 16
	churnWarmOps = 1 << 16
)

type libInstance struct {
	p      *params
	name   string
	kv     *concurrent.KV
	pay    *payloads
	stream []uint64
	pos    int      // where the timed phase starts in the stream
	keys   rankKeys // set: ids are ranks with pre-rendered keys; unset: hex of the id
	fixed  int      // value size; 0 = log-uniform per key
	ttl    bool     // 10 % of sets carry a 1-3 s TTL on the virtual clock
	vnow   int64    // the virtual clock, in seconds
	ops    int
	kbuf   [16]byte // the hex key of the op in hand
}

func (in *libInstance) close() { in.p.env.release() }

// key is the wire key of id; it is valid until the next call.
func (in *libInstance) key(id uint64) []byte {
	if in.keys.slab != nil {
		return in.keys.key(uint32(id))
	}
	return idKey(in.kbuf[:0], id)
}

func (in *libInstance) size(id uint64) int {
	if in.fixed != 0 {
		return in.fixed
	}
	return in.pay.logUniformSize(id)
}

// expiry is the absolute deadline of a set, 0 for the nine in ten that
// never expire.
func (in *libInstance) expiry(id uint64) int64 {
	if !in.ttl {
		return 0
	}
	h := mix64(id ^ 0x7474)
	if h%10 != 0 {
		return 0
	}
	return in.vnow + 1 + int64(h>>32%3)
}

func widen(s []uint32) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = uint64(v)
	}
	return out
}

func setupLibHot(p *params, ops int) (instance, error) {
	p.env.oneCPU()
	cache, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(hotEntries), concurrent.WithShards(16))
	if err != nil {
		return nil, err
	}
	in := &libInstance{p: p, name: "lib-hot", kv: concurrent.NewKV(cache, 16), pay: newPayloads(p.seed),
		keys: newRankKeys('k', hotKeys), fixed: 64, ops: ops,
		stream: widen(zipfStream(subSeed(p.seed, 0), hotKeys, libStreamLen, 1.0))}
	// Warm fill: a set and a get per key (see keyed.warm for why the get).
	for r := uint64(0); r < hotKeys; r++ {
		k := in.key(r)
		in.kv.Set(k, in.pay.value(r, in.fixed), 0)
		in.kv.Get(nil, k)
	}
	return in, nil
}

func setupLibChurn(p *params, ops int) (instance, error) {
	p.env.oneCPU()
	cache, err := concurrent.New("qdlp", 0, concurrent.WithMaxBytes(churnBytes), concurrent.WithShards(16))
	if err != nil {
		return nil, err
	}
	in := &libInstance{p: p, name: "lib-churn", kv: concurrent.NewKV(cache, 16), pay: newPayloads(p.seed), ttl: true, ops: ops,
		stream: familyWindows(workload.MSRLike(), p.seed, churnObjects, libStreamLen, 1)[0]}
	// The virtual clock starts at the store's own (wall) second so that
	// the timer wheel, created at that second, never runs backwards.
	in.vnow = time.Now().Unix() + 1
	in.kv.AdvanceTTL(in.vnow)
	// Warm fill: the head of the stream, unmeasured, fills the byte budget.
	in.drive(churnWarmOps, nil, &libTally{})
	return in, nil
}

// libTally is the load generator's count of what it did and saw.
type libTally struct {
	gets, hits, sets, failed int64
	expired                  int64
	advance                  time.Duration // time inside KV.AdvanceTTL
	lat                      []float32     // nil: no op is timed
	marks                    []mark        // nil: no slice is marked
}

// drive runs ops ops of get-with-set-on-miss from the stream.
func (in *libInstance) drive(ops int, sb *spanBuf, t *libTally) {
	stream, pos := in.stream, in.pos
	var vbuf []byte
	var t0 time.Time
	slice, nextMark := 1, ops/phaseSlices
	for i := 0; i < ops; i++ {
		if i == nextMark && t.marks != nil {
			t.marks = append(t.marks, mark{t: time.Now(), cpu: selfCPU(), ops: int64(i)})
			slice++
			nextMark = slice * ops / phaseSlices
		}
		id := stream[pos]
		if pos++; pos == len(stream) {
			pos = 0
		}
		key := in.key(id)
		want := in.pay.value(id, in.size(id))
		root, sp := -1, -1
		traced := sb != nil && i%traceEvery == 0
		if traced {
			root = sb.begin(in.name+".op", -1, int64(i))
			sp = sb.begin("concurrent.kv.get", root, int64(i))
		}
		if t.lat != nil && i%libSampleEvery == 0 {
			t0 = time.Now()
		}
		v, _, _, ok := in.kv.Get(vbuf[:0], key)
		if traced {
			sb.end(sp)
		}
		vbuf = v[:0]
		t.gets++
		if ok {
			t.hits++
			if !bytes.Equal(v, want) {
				t.failed++
			}
		} else {
			if traced {
				sp = sb.begin("concurrent.kv.set", root, int64(i))
			}
			in.kv.SetDigest(key, want, 0, concurrent.Digest(key), in.expiry(id))
			if traced {
				sb.end(sp)
			}
			t.sets++
		}
		if t.lat != nil && i%libSampleEvery == libGroup-1 {
			t.lat = append(t.lat, float32(float64(time.Since(t0).Nanoseconds())/1e3/libGroup))
		}
		if traced {
			sb.end(root)
		}
		if in.ttl && i%churnTickOps == churnTickOps-1 {
			in.vnow++
			a0 := time.Now()
			t.expired += int64(in.kv.AdvanceTTL(in.vnow))
			t.advance += time.Since(a0)
		}
	}
	in.pos = pos
}

func (in *libInstance) run(tr *tracer) (*outcome, error) {
	if in.p.corrupt {
		in.pay.corrupt()
	}
	t := libTally{lat: make([]float32, 0, in.ops/libSampleEvery+1), marks: make([]mark, 0, phaseSlices+1)}
	before := in.kv.Stats()
	t.marks = append(t.marks, mark{t: time.Now(), cpu: selfCPU()})
	in.drive(in.ops, tr.buf(), &t)
	t.marks = append(t.marks, mark{t: time.Now(), cpu: selfCPU(), ops: t.gets})
	o := &outcome{ops: t.gets, gets: t.gets, hits: t.hits, failed: t.failed, marks: t.marks, lat: [][]float32{t.lat},
		latWhat: fmt.Sprintf("time per op of %d consecutive ops, every %d ops", libGroup, libSampleEvery), rssKiB: selfPeakRSSKiB()}

	after := in.kv.Stats()
	o.check("kv-stats-equal-tallies", after.Hits-before.Hits == o.hits && after.Misses-before.Misses == o.gets-o.hits,
		"KV.Stats hits %d misses %d, tallied hits %d misses %d", after.Hits-before.Hits, after.Misses-before.Misses, o.hits, o.gets-o.hits)
	if after.MaxBytes > 0 {
		o.check("used-bytes-within-budget", after.UsedBytes <= after.MaxBytes, "used %d of %d bytes", after.UsedBytes, after.MaxBytes)
		share := float64(t.sets) / float64(o.ops)
		o.check("evicting-sets-at-least-30pct", share >= 0.30 && after.Evictions > before.Evictions,
			"sets are %.3f of ops, %d evictions", share, after.Evictions-before.Evictions)
		o.note("concurrent.kv.used_bytes_share", float64(after.UsedBytes)/float64(after.MaxBytes), "ratio")
	} else {
		o.check("items-within-capacity", after.Len <= after.Capacity, "%d items, capacity %d", after.Len, after.Capacity)
		ratio := float64(o.hits) / float64(o.gets)
		o.check("hit-ratio-at-least-0.999", ratio >= 0.999, "hit ratio %.5f", ratio)
	}
	if t.sets > 0 {
		o.note("concurrent.kv.evictions_per_set", float64(after.Evictions-before.Evictions)/float64(t.sets), "ratio")
		o.note("concurrent.kv.expired_per_set", float64(after.Expired-before.Expired)/float64(t.sets), "ratio")
	}
	if t.expired > 0 {
		o.note("ttlwheel.advance_ns_per_expired", float64(t.advance.Nanoseconds())/float64(t.expired), "ns")
	}
	return o, nil
}

func libHotLayers(p *params) layerInput {
	return layerInput{ids: widen(zipfStream(subSeed(p.seed, 0), hotKeys, ladderOps, 1.0)), size: fixedSize(64), maxEntries: hotEntries}
}

func libChurnLayers(p *params) layerInput {
	pay := newPayloads(p.seed)
	return layerInput{ids: familyWindows(workload.MSRLike(), p.seed, churnObjects, ladderOps, 1)[0],
		size: pay.logUniformSize, maxBytes: churnBytes, ttl: true}
}
