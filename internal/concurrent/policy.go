package concurrent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dlist"
	"repro/internal/obs"
)

// EntryOverhead is the fixed per-object byte cost added to
// len(key)+len(value) when a byte-capped cache accounts an object: an
// approximation of the map entry, pooled entry struct, buffer slack, and
// policy node a cached object really costs beyond its payload.
const EntryOverhead = 64

// EntryCost is the accounted byte cost of one cached object — the value
// the KV adapter feeds the inner policy's Set.
func EntryCost(keyLen, valueLen int) int64 {
	return int64(keyLen) + int64(valueLen) + EntryOverhead
}

// minShardBytes is the smallest per-shard byte budget that still fits at
// least one small object (cost = key+value+EntryOverhead).
const minShardBytes = 2 * EntryOverhead

// entry is one object's policy metadata: the key digest, the caller's
// value, and the CLOCK/SIEVE reference counter (atomic so the shared-lock
// hit path can bump it). entry lives inside a dlist.Node and is never
// copied after insertion — nodes move between positions (and, in QDLP,
// between lists) via Unlink/PushNodeFront.
type entry struct {
	key    uint64
	value  uint64
	freq   atomic.Uint32
	inMain bool // QDLP: which region holds the node
}

type node = dlist.Node[entry]

// base is what every implementation shares: a budget in cost units and
// the eviction plumbing. Each shard evicts until used + cost ≤ max; the
// capacity mode decides only what an object costs (see cost) and how the
// budget is reported (see snapshot). Policies embed it by value, so its
// methods are direct calls — nothing here puts an indirect call on Get.
type base struct {
	name    string
	mask    uint64
	max     int64 // whole-cache budget in cost units
	byBytes bool  // WithMaxBytes: cost units are accounted bytes, not objects
	onEvict func(uint64, obs.Reason)
	rec     *obs.Recorder
}

// newBase validates the shard layout and divides the budget exactly:
// remainder units go to the first shards, the per-shard budgets sum to
// cfg.max, and no shard gets less than min.
func newBase(name string, cfg config, min int64) (base, []int64, error) {
	n := int64(shardCount(cfg.shards))
	if cfg.max < n*min {
		return base{}, nil, fmt.Errorf("concurrent: capacity %d below shard count %d × the %d-unit shard minimum (use fewer shards or a larger capacity)",
			cfg.max, n, min)
	}
	per := make([]int64, n)
	for i := range per {
		per[i] = cfg.max / n
		if int64(i) < cfg.max%n {
			per[i]++
		}
	}
	return base{name: name, mask: uint64(n - 1), max: cfg.max, byBytes: cfg.byBytes}, per, nil
}

// cost derives an object's cost from its value — the one place the
// capacity mode touches an operation. Under a byte cap the value IS the
// accounted size; under an entry cap the value is an opaque payload and
// every object costs one unit.
func (b *base) cost(value uint64) int64 {
	if b.byBytes {
		return int64(value)
	}
	return 1
}

// Name implements Cache.
func (b *base) Name() string { return b.name }

// Capacity implements Cache: byte-capped caches have no object capacity.
func (b *base) Capacity() int {
	if b.byBytes {
		return 0
	}
	return int(b.max)
}

// SetEvictHook implements Cache.
func (b *base) SetEvictHook(fn func(uint64, obs.Reason)) { b.onEvict = fn }

// SetRecorder implements Cache.
func (b *base) SetRecorder(rec *obs.Recorder) { b.rec = rec }

// evicted counts, records, and reports one capacity removal (or refused
// admission: the KV adapter has already stored the bytes and relies on
// the hook to drop them). Caller holds the shard's exclusive lock.
func (b *base) evicted(o *opStats, key uint64, kind obs.EventKind, reason obs.Reason) {
	o.evictions.Add(1)
	b.rec.Record(obs.Event{Key: key, Kind: kind, Reason: reason})
	if b.onEvict != nil {
		b.onEvict(key, reason)
	}
}

// snapshot renders one shard's counters, reporting its budget as an
// object capacity or a byte budget according to the mode.
func (b *base) snapshot(o *opStats, length int, max int64) Snapshot {
	s := o.snapshot(length)
	if b.byBytes {
		s.MaxBytes = max
	} else {
		s.Capacity = int(max)
	}
	return s
}

// region is one queue with its own budget: the whole shard for LRU, CLOCK
// and SIEVE, the probationary or the main queue for QDLP.
type region struct {
	list dlist.List[entry] // front = newest
	max  int64             // budget in cost units
	used int64             // cost units held
}

func (r *region) push(n *node, cost int64) {
	r.list.PushNodeFront(n)
	r.used += cost
}

func (r *region) unlink(n *node, cost int64) {
	r.list.Unlink(n)
	r.used -= cost
}

// queue is the shard state LRU, CLOCK and SIEVE share. The policy's shard
// lock guards everything but stats.
type queue struct {
	region
	byKey map[uint64]*node
	stats opStats
}

func newQueue(max int64) queue {
	return queue{region: region{max: max}, byKey: make(map[uint64]*node)}
}

// insert links a new object at the front. The caller has made room.
func (q *queue) insert(b *base, key, value uint64, cost int64) {
	n := &node{}
	n.Value.key, n.Value.value = key, value
	q.byKey[key] = n
	q.push(n, cost)
	q.stats.usedBytes.Add(int64(value))
	b.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
}

// overwrite re-accounts a resident object under its new value. The caller
// evicts afterwards if the shard now exceeds its budget.
func (q *queue) overwrite(b *base, n *node, value uint64) {
	q.used += b.cost(value) - b.cost(n.Value.value)
	q.stats.usedBytes.Add(int64(value) - int64(n.Value.value))
	n.Value.value = value
}

// remove unlinks and un-accounts a resident object (Delete, and the first
// half of every eviction).
func (q *queue) remove(b *base, n *node) {
	delete(q.byKey, n.Value.key)
	q.unlink(n, b.cost(n.Value.value))
	q.stats.usedBytes.Add(-int64(n.Value.value))
}

// drop evicts a resident object, firing the hook.
func (q *queue) drop(b *base, n *node, reason obs.Reason) {
	q.remove(b, n)
	b.evicted(&q.stats, n.Value.key, obs.EvEvict, reason)
}

// delete implements Cache.Delete under the caller's exclusive lock.
func (q *queue) delete(b *base, key uint64) bool {
	n, ok := q.byKey[key]
	if ok {
		q.remove(b, n)
		q.stats.deletes.Add(1)
	}
	return ok
}
