package concurrent

import "testing"

func TestPartitionShards(t *testing.T) {
	cases := []struct {
		shards, parts int
	}{
		{8, 1}, {8, 2}, {8, 3}, {8, 8}, {8, 16},
		{1, 4}, {16, 4}, {64, 6}, {128, 12},
	}
	for _, tc := range cases {
		owner := PartitionShards(tc.shards, tc.parts)
		if len(owner) != tc.shards {
			t.Fatalf("PartitionShards(%d,%d): len %d", tc.shards, tc.parts, len(owner))
		}
		counts := map[int]int{}
		prev := 0
		for i, o := range owner {
			if o < 0 || (tc.parts > 0 && o >= tc.parts) {
				t.Fatalf("PartitionShards(%d,%d): owner[%d]=%d out of range", tc.shards, tc.parts, i, o)
			}
			if o < prev {
				t.Fatalf("PartitionShards(%d,%d): ownership not contiguous at %d", tc.shards, tc.parts, i)
			}
			prev = o
			counts[o]++
		}
		// Balanced to within one shard across non-empty partitions.
		min, max := tc.shards, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if tc.parts <= tc.shards && max-min > 1 {
			t.Fatalf("PartitionShards(%d,%d): imbalance min %d max %d", tc.shards, tc.parts, min, max)
		}
	}
	if got := PartitionShards(0, 4); got != nil {
		t.Fatalf("PartitionShards(0,4) = %v, want nil", got)
	}
	if got := PartitionShards(4, 0); len(got) != 4 || got[3] != 0 {
		t.Fatalf("PartitionShards(4,0) = %v, want all-zero", got)
	}
}

// The topology surface must agree with the KV's own shard mapping: every
// digest's DataShardIndex is in range and stable.
func TestKVShardTopology(t *testing.T) {
	inner, err := New("qdlp", 1024, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 5) // ignored: the KV's shards are the policy's
	n := kv.NumDataShards()
	if n != 4 {
		t.Fatalf("NumDataShards %d: want the policy's 4", n)
	}
	for i := 0; i < 1000; i++ {
		id := Digest([]byte{byte(i), byte(i >> 8), 'k'})
		idx := kv.DataShardIndex(id)
		if idx < 0 || idx >= n {
			t.Fatalf("DataShardIndex(%d) = %d out of [0,%d)", id, idx, n)
		}
		if kv.DataShardIndex(id) != idx {
			t.Fatal("DataShardIndex not stable")
		}
	}
}
