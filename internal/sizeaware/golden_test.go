package sizeaware

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenTraces are the sized traces of the golden table: the CDN trace
// BenchmarkSizeAware replays and a block-storage one, both with per-key
// log-normal sizes around a 4 KiB median.
func goldenTraces() []*trace.Trace {
	cdn := workload.MajorCDNLike().Generate(1, 6000, 100000)
	msr := workload.MSRLike().Generate(1, 6000, 100000)
	for _, tr := range []*trace.Trace{cdn, msr} {
		workload.AssignSizes(tr, 4096)
	}
	return []*trace.Trace{cdn, msr}
}

// footprint is the total size of a trace's distinct objects.
func footprint(tr *trace.Trace) int64 {
	seen := make(map[uint64]bool)
	var bytes int64
	for _, r := range tr.Requests {
		if !seen[r.Key] {
			seen[r.Key] = true
			bytes += int64(r.Size)
		}
	}
	return bytes
}

// TestGoldenSizedCounts pins the exact object and byte hit counts of every
// size-aware policy at 1 % and 10 % of two sized traces' footprints to
// testdata/golden_sized.txt, as internal/policy/all's golden table does for
// the entry-capped policies: a change of data structure or of the package an
// algorithm lives in is shown to change no decision. A policy whose decisions
// are meant to change gets its lines replaced by the ones this test prints.
func TestGoldenSizedCounts(t *testing.T) {
	want := map[string]string{}
	data, err := os.ReadFile("testdata/golden_sized.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, counts, ok := strings.Cut(line, "\t"); ok {
			want[key] = counts
		}
	}

	seen := 0
	for _, tr := range goldenTraces() {
		total := footprint(tr)
		for _, div := range []int64{100, 10} {
			capacity := total / div
			for _, name := range []string{"fifo", "clock", "lru", "gdsf", "qdlp"} {
				p, err := New(name, capacity)
				if err != nil {
					t.Fatal(err)
				}
				res := Run(p, tr)
				key := fmt.Sprintf("%s %s cap=%d", name, tr.Name, capacity)
				got := fmt.Sprintf("%d/%d\t%d/%d", res.Hits, res.Requests, res.ByteHits, res.Bytes)
				seen++
				if want[key] != got {
					t.Errorf("%s\t%s (golden: %q)", key, got, want[key])
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("golden table has %d rows, the policies produced %d", len(want), seen)
	}
}
