package all

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCell is one (trace, capacity) pair every registered policy is
// replayed over.
type goldenCell struct {
	name     string
	tr       *trace.Trace
	capacity int
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, fam := range []workload.Family{workload.TwitterLike(), workload.MSRLike()} {
		tr := fam.Generate(1, 20000, 120000)
		unique := tr.UniqueObjects()
		for _, frac := range []float64{workload.SmallCacheFrac, workload.LargeCacheFrac} {
			cells = append(cells, goldenCell{fmt.Sprintf("%s@%g", fam.Name, frac), tr, workload.CacheSize(unique, frac)})
		}
	}
	mixed := &trace.Trace{Name: "policytest", Requests: policytest.Workload(42, 60000, 3000)}
	return append(cells, goldenCell{"policytest@64", mixed, 64}, goldenCell{"policytest@333", mixed, 333})
}

// readGolden reads a golden table: one "key<TAB>counts" row a line, by key.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if key, counts, ok := strings.Cut(line, "\t"); ok {
			rows[key] = counts
		}
	}
	return rows
}

// TestGoldenHitCounts pins the exact hit count of every registered policy on
// every cell to testdata/golden_hits.txt, so that a change of data structure
// under a policy is shown to change no eviction decision. A policy whose
// decisions are meant to change gets its lines replaced by the ones this test
// prints.
func TestGoldenHitCounts(t *testing.T) {
	want := readGolden(t, "testdata/golden_hits.txt")
	seen := 0
	for _, c := range goldenCells() {
		for _, name := range core.Names() {
			res := sim.Run(core.MustNew(name, c.capacity), c.tr)
			key := fmt.Sprintf("%s %s cap=%d", name, c.name, c.capacity)
			got := fmt.Sprintf("%d/%d", res.Hits, res.Requests)
			seen++
			if want[key] != got {
				t.Errorf("%s\t%s (golden: %q)", key, got, want[key])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("golden table has %d rows, the registry produced %d", len(want), seen)
	}
}

// sizedGoldenTraces are the sized traces of the sized golden table: a CDN
// trace and a block-storage one, both with per-key log-normal sizes around a
// 4 KiB median.
func sizedGoldenTraces() []*trace.Trace {
	cdn := workload.MajorCDNLike().Generate(1, 6000, 100000)
	msr := workload.MSRLike().Generate(1, 6000, 100000)
	for _, tr := range []*trace.Trace{cdn, msr} {
		workload.AssignSizes(tr, 4096)
	}
	return []*trace.Trace{cdn, msr}
}

// footprint is the total size of a trace's distinct objects.
func footprint(tr *trace.Trace) int {
	seen := make(map[uint64]bool)
	bytes := 0
	for _, r := range tr.Requests {
		if !seen[r.Key] {
			seen[r.Key] = true
			bytes += int(r.Size)
		}
	}
	return bytes
}

// TestGoldenSizedCounts pins the exact object and byte hit counts of every
// byte-capped policy at 1 % and 10 % of two sized traces' footprints to
// testdata/golden_sized.txt, as TestGoldenHitCounts does for the registry.
func TestGoldenSizedCounts(t *testing.T) {
	want := readGolden(t, "testdata/golden_sized.txt")
	seen := 0
	for _, tr := range sizedGoldenTraces() {
		total := footprint(tr)
		for _, div := range []int{100, 10} {
			capacity := total / div
			for _, sp := range sizedPolicies {
				res := sim.Run(sp.new(capacity), tr)
				key := fmt.Sprintf("%s %s cap=%d", sp.name, tr.Name, capacity)
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
