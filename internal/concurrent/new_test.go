package concurrent

import (
	"strings"
	"testing"
)

// Every policy Names lists must construct through New, honour WithShards,
// and round-trip a basic Set/Get.
func TestNewConstructsEveryPolicy(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(name, 1024, WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			if c.Capacity() != 1024 {
				t.Errorf("Capacity = %d", c.Capacity())
			}
			if got := len(c.ShardStats()); got != 4 {
				t.Errorf("shards = %d, want 4", got)
			}
			c.Set(1, 2)
			if v, ok := c.Get(1); !ok || v != 2 {
				t.Errorf("Get(1) = %d,%v", v, ok)
			}
		})
	}
}

func TestNewOptionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		policy  string
		opts    []Option
		wantErr string
	}{
		{"unknown policy", "arc", nil, "unknown cache policy"},
		{"bad shards", "lru", []Option{WithShards(0)}, "must be positive"},
		{"bad clock bits", "clock", []Option{WithClockBits(7)}, "outside [1, 6]"},
		{"clock bits on lru", "lru", []Option{WithClockBits(2)}, "does not take WithClockBits"},
		{"clock bits on sieve", "sieve", []Option{WithClockBits(2)}, "does not take WithClockBits"},
		{"capacity below shards", "lru", []Option{WithShards(64)}, "below shard count"},

		{"clock with bits", "clock", []Option{WithClockBits(1)}, ""},
		{"qdlp with bits", "qdlp", []Option{WithClockBits(3)}, ""},
		{"defaults", "sieve", nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			capacity := 40 // deliberately small so WithShards(64) trips the per-shard minimum
			c, err := New(tc.policy, capacity, tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if c.Capacity() != capacity {
					t.Errorf("Capacity = %d", c.Capacity())
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got cache %s", tc.wantErr, c.Name())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// WithClockBits must actually reach the queue: with 1-bit counters an object's
// frequency saturates at 1, with 6 bits at 63.
func TestWithClockBitsApplied(t *testing.T) {
	for _, tc := range []struct {
		bits    int
		maxFreq uint32
	}{{1, 1}, {6, 63}} {
		c, err := New("clock", 16, WithShards(1), WithClockBits(tc.bits))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.(*Clock).maxFreq; got != tc.maxFreq {
			t.Errorf("bits=%d: maxFreq = %d, want %d", tc.bits, got, tc.maxFreq)
		}
	}
}

// An unknown-policy error names the known policies so the caller can fix
// the flag without reading source.
func TestNewUnknownPolicyListsNames(t *testing.T) {
	_, err := New("nope", 100)
	if err == nil {
		t.Fatal("expected error")
	}
	for _, name := range []string{"lru", "clock", "qdlp", "sieve"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}
