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

// TestGoldenHitCounts pins the exact hit count of every registered policy on
// every cell to testdata/golden_hits.txt, so that a change of data structure
// under a policy is shown to change no eviction decision. A policy whose
// decisions are meant to change gets its lines replaced by the ones this test
// prints.
func TestGoldenHitCounts(t *testing.T) {
	want := map[string]string{}
	data, err := os.ReadFile("testdata/golden_hits.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, hits, ok := strings.Cut(line, "\t"); ok {
			want[key] = hits
		}
	}

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
