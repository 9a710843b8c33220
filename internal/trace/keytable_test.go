package trace

import (
	"math/rand"
	"sort"
	"testing"
)

// keySequences are the key streams keyTable is checked on: heavy reuse,
// all distinct, all equal, key 0 in every position, and keys that differ
// only in their high or low bits.
func keySequences() map[string][]uint64 {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, key func(i int) uint64) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = key(i)
		}
		return ks
	}
	return map[string][]uint64{
		"empty":           nil,
		"random/64":       gen(5000, func(int) uint64 { return uint64(rng.Intn(64)) }),
		"random/4096":     gen(20000, func(int) uint64 { return uint64(rng.Intn(4096)) }),
		"random/full":     gen(20000, func(int) uint64 { return rng.Uint64() }),
		"distinct/seq":    gen(20000, func(i int) uint64 { return uint64(i) }),
		"distinct/high":   gen(20000, func(i int) uint64 { return uint64(i+1) << 44 }),
		"equal":           gen(1000, func(int) uint64 { return 0xfeed }),
		"equal/zero":      gen(1000, func(int) uint64 { return 0 }),
		"zero/first":      append([]uint64{0}, gen(100, func(i int) uint64 { return uint64(i%7 + 1) })...),
		"zero/last":       append(gen(100, func(i int) uint64 { return uint64(i%7 + 1) }), 0),
		"zero/interleave": gen(1000, func(i int) uint64 { return uint64(i%3) * uint64(i) }),
	}
}

func TestKeyTableAgainstMap(t *testing.T) {
	for name, keys := range keySequences() {
		tab := newKeyTable[int64](0) // smallest table: every sequence grows it
		ref := map[uint64]int64{}
		for i, k := range keys {
			v, added := tab.ref(k)
			old, ok := ref[k]
			if added == ok || *v != old {
				t.Fatalf("%s: key %d at %d: ref gave (%d, added %v), map has (%d, %v)", name, k, i, *v, added, old, ok)
			}
			*v += int64(i) + 1
			ref[k] = old + int64(i) + 1
		}
		if tab.len() != len(ref) {
			t.Fatalf("%s: len %d, map %d", name, tab.len(), len(ref))
		}
		var got, want []int64
		tab.values(func(v int64) { got = append(got, v) })
		for _, v := range ref {
			want = append(want, v)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: values gave %d values, map has %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: values differ from the map's: %v vs %v", name, got[i], want[i])
			}
		}
	}
}

// TestCountingAgainstMaps checks the three passes built on keyTable against
// the Go-map versions they replaced.
func TestCountingAgainstMaps(t *testing.T) {
	for name, keys := range keySequences() {
		tr := mkTrace(keys...)

		freq := map[uint64]int{}
		for _, k := range keys {
			freq[k]++
		}
		if got := tr.UniqueObjects(); got != len(freq) {
			t.Errorf("%s: UniqueObjects %d, map %d", name, got, len(freq))
		}

		want := Stats{Requests: len(keys), Objects: len(freq)}
		if len(freq) > 0 {
			var counts []int
			for _, c := range freq {
				counts = append(counts, c)
				if c == 1 {
					want.OneHitWonders++
				}
				want.MaxFrequency = max(want.MaxFrequency, c)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(counts)))
			want.MeanFrequency = float64(want.Requests) / float64(want.Objects)
			sum := 0
			for _, c := range counts[:max(len(counts)/100, 1)] {
				sum += c
			}
			want.TopPercentShare = float64(sum) / float64(want.Requests)
		}
		if got := tr.ComputeStats(); got != want {
			t.Errorf("%s: ComputeStats %+v, map %+v", name, got, want)
		}

		tr.Annotate()
		last := map[uint64]int64{}
		for i := len(keys) - 1; i >= 0; i-- {
			want, ok := last[keys[i]]
			if !ok {
				want = NoFutureAccess
			}
			if got := tr.Requests[i].NextAccess; got != want {
				t.Fatalf("%s: request %d NextAccess %d, map %d", name, i, got, want)
			}
			last[keys[i]] = int64(i)
		}
	}
}
