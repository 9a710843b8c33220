// Package lfu implements in-cache Least-Frequently-Used eviction with O(1)
// operations via frequency buckets.
//
// Ties within the minimum-frequency bucket break toward the least recently
// used object. LFU is registered standalone as a baseline; its Buckets are
// also the frequency expert of LeCaR and CACHEUS.
package lfu

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("lfu", func(capacity int) core.Policy { return New(capacity) })
}

// Buckets orders keys by frequency and, within one frequency, by recency:
// one keyed slab whose slots carry the frequency, threaded through one list
// per populated frequency. It is all of LFU's state. LeCaR and CACHEUS,
// whose entries sit on a recency list as well, keep that list in an index
// of their own under the same keys.
type Buckets struct {
	idx     *slab.Index[int]   // value = frequency, which names the slot's list
	lists   map[int]*slab.List // freq → slots, front = MRU; no empty lists
	spare   []*slab.List       // emptied lists, for the next frequency to appear
	minFreq int                // no populated frequency is below it; may be stale
}

// NewBuckets returns buckets for at most bound keys.
func NewBuckets(bound int) *Buckets {
	return &Buckets{idx: slab.New[int](bound), lists: make(map[int]*slab.List)}
}

// Len returns the number of keys held.
func (b *Buckets) Len() int { return b.idx.Len() }

// Freq returns key's frequency, 0 when the key is absent.
func (b *Buckets) Freq(key uint64) int {
	if s := b.idx.Find(key); s != 0 {
		return *b.idx.Value(s)
	}
	return 0
}

// Add inserts key, which must be absent, at the MRU end of freq's list.
func (b *Buckets) Add(key uint64, freq int) {
	if freq < b.minFreq || b.idx.Len() == 0 {
		b.minFreq = freq
	}
	s := b.idx.Insert(key)
	*b.idx.Value(s) = freq
	b.push(s, freq)
}

func (b *Buckets) push(s int32, freq int) {
	l, ok := b.lists[freq]
	if !ok {
		if n := len(b.spare); n > 0 {
			l, b.spare = b.spare[n-1], b.spare[:n-1]
		} else {
			l = new(slab.List)
		}
		b.lists[freq] = l
	}
	b.idx.PushFront(l, s)
}

// retire drops freq's list l if it has emptied, and reports whether it had.
func (b *Buckets) retire(freq int, l *slab.List) bool {
	if l.Len() > 0 {
		return false
	}
	delete(b.lists, freq)
	b.spare = append(b.spare, l)
	return true
}

// Bump moves key to the MRU end of the next frequency's list and reports
// whether the key was present.
func (b *Buckets) Bump(key uint64) bool {
	s := b.idx.Find(key)
	if s == 0 {
		return false
	}
	freq := b.idx.Value(s)
	l := b.lists[*freq]
	b.idx.Unlink(l, s)
	if b.retire(*freq, l) && b.minFreq == *freq {
		b.minFreq++
	}
	*freq++
	b.push(s, *freq)
	return true
}

// Remove drops key, which must be present, and returns its frequency.
func (b *Buckets) Remove(key uint64) int {
	s := b.idx.Find(key)
	freq := *b.idx.Value(s)
	l := b.lists[freq]
	b.idx.Remove(l, s)
	b.retire(freq, l)
	return freq
}

// Min returns the least recently used key of the lowest populated
// frequency, or with mru its most recently used one (CACHEUS's
// churn-resistant tie-break). The buckets must not be empty.
func (b *Buckets) Min(mru bool) uint64 {
	l := b.lists[b.minFreq]
	for l == nil {
		// minFreq goes stale when a removal empties the lowest list;
		// advance to the next populated one.
		b.minFreq++
		l = b.lists[b.minFreq]
	}
	if mru {
		return b.idx.Key(l.Front())
	}
	return b.idx.Key(l.Back())
}

// Policy is an LFU cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	freqs    *Buckets
}

// New returns an LFU policy with the given capacity in objects.
func New(capacity int) *Policy {
	return &Policy{capacity: capacity, freqs: NewBuckets(capacity)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lfu" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.freqs.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.freqs.Freq(key) != 0 }

// Frequency returns the tracked frequency of key, or 0 if absent (for
// tests).
func (p *Policy) Frequency(key uint64) int { return p.freqs.Freq(key) }

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if p.freqs.Bump(r.Key) {
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.freqs.Len() >= p.capacity {
		victim := p.freqs.Min(false)
		p.freqs.Remove(victim)
		p.Evict(victim, r.Time)
	}
	p.freqs.Add(r.Key, 1)
	p.Insert(r.Key, r.Time)
	return false
}
